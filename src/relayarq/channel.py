"""System configuration and seeded channel generation.

Two single-antenna users, one N-antenna base station per cell, one shared
M-antenna relay. All links are i.i.d. circularly symmetric complex Gaussian,
flat per transmission round:

* ``var_direct``  per-entry variance of each user's own-cell BS link,
* ``var_cross``   variance of the other cell's interfering BS link,
* ``var_relay``   variance of the relay-to-user link (same for both users).

Per-complex-entry variance s means real and imaginary parts each carry s/2.
A user's SINR sees its BS links only through their power gains ||h||^2,
which for N entries of variance s are exactly s Gamma(N, 1). Both relay
designs see a pair of relay links g1, g2 only through three independent
Gamma variates (rotational invariance; N. R. Goodman, Ann. Math.
Statist. 34, 1963). The engine draws both at unit variance, and only its
verdicts read the variances (``simulate``): ``draw_bs_channels`` takes
the BS antenna count n and ``draw_relay_stats`` the relay's m, each with
its stream and its count, and no config. ``cn`` draws complex
channels for the single-draw ``beamform-*`` commands and the demos, and
``span_coords`` reads such a pair in the coordinates of its span, the
one input rule of both relay designs: the squared moduli of its a, b and
c are the A, B and C that ``draw_relay_stats`` draws.

Randomness is counter-based: every (seed, context, index) key owns a
disjoint Philox substream, with the seed as Philox's 64-bit key, a whole
number from 0 to MAX_SEED = 2^64 - 1, and the context and index in two
counter words above the one the stream counts in, the index a 64-bit
word and the context two. Every count, ceiling, seed and key word goes
through one rule, ``whole``, and every real input, a config's fields, a
variance, a budget or a probability, through its twin, ``real``; the
package's other modules read their inputs by the same two. Each refuses
bad input, of any type, with ``ContractViolationError`` before it is
compared to a bound, and so before anything is drawn. How the Monte
Carlo engine keys and reads its substreams is set out in ``simulate``.
``ContractViolationError`` is the package's one exception type, and
``ratio`` forms every product of powers, variances and gains from
mantissas and exponents, so that no partial product under- or overflows.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np


class ContractViolationError(Exception):
    """Bad input to any function, reported by the CLI with exit code 2: a
    command line or config file is malformed; a count, seed or substream
    key word is not a whole number in its range (``whole``); a real
    input, such as a config field, a variance, a relay design's budget or
    noise, or a probability, is not a real number in its range
    (``real``); a preset is unknown; an output file cannot be written; two
    channel vectors given to a relay design differ in length, hold no
    entry or more than MAX_ANTENNAS, or one holds a NaN or inf; the
    single-user design has under two relay antennas; or a relay design's
    gain or SINR overflows a float. A zero channel is an outcome, not an
    error."""

# substream contexts; each top-level consumer uses its own lane
CTX_DIRECT = 1
CTX_RELAY = 2
CTX_GENERIC = 0


# the most BS or relay antennas: the outage law sums one array of N terms
# and is tested at this order (``outage.cdf_diff_exp``); M shares the
# bound, though no Monte Carlo draw grows with N or M
MAX_ANTENNAS = 5000
# the most attempts of a direct-ARQ message: a point draws one round per
# trial and attempt, each attempt from its own substream, so at most 1000
# rounds a trial and 1000 substreams a point
MAX_ATTEMPTS = 1000
# the largest seed: Philox's key is 64 bits, so -1 would alias it and
# 2^64 would alias 0
MAX_SEED = 2 ** 64 - 1
# the bounds of a positive and of a finite real: the smallest positive
# double and the largest
MIN_POSITIVE = math.ulp(0.0)
MAX_FINITE = sys.float_info.max


def _within(value, name: str, low, high):
    """value, once it lies in [low, high]; an int is compared with every
    digit."""
    if value < low:
        raise ContractViolationError(f"{name} must be at least {low!r}")
    if value > high:
        raise ContractViolationError(f"{name} must be at most {high!r}")
    return value


def whole(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """value as an int in [low, high]: an integer (True is 1) or a real
    number with no fractional part; anything else (nan, inf, a str, None,
    a complex) raises ContractViolationError before it is compared to
    anything. This is the one rule for every count, its ceiling and the
    seed."""
    # int and float first: they pass without the slower ABC check. A real
    # is whole when finite and equal to its floor, both tested exactly, so
    # a fraction past float range is never made a float
    if not (isinstance(value, (int, numbers.Integral)) or isinstance(
            value, (float, numbers.Real)) and abs(value) < math.inf
            and math.floor(value) == value):
        raise ContractViolationError(f"{name} must be a whole number")
    return _within(int(value), name, low, high)


def real(value, name: str, low: float = -math.inf,
         high: float = math.inf) -> float:
    """value as a float in [low, high]: any real number but NaN (True is
    1.0); anything else (nan, a str, None, a complex) raises
    ContractViolationError before it is compared to anything. An int past
    float range is refused by a finite bound, never by ``float``, and
    within an infinite one reads as that infinity. This is the one rule
    for every real input, the twin of ``whole``: ``MIN_POSITIVE`` bounds a
    positive one and ``MAX_FINITE`` a finite one."""
    if not isinstance(value, (float, int, numbers.Real)) or value != value:
        raise ContractViolationError(f"{name} must be a real number")
    # a numpy float scalar would cast a bound to its own precision, so it
    # is compared as a float; an int, float or fraction is compared exactly
    x = _within(value if isinstance(value, (int, float, numbers.Rational))
                else float(value), name, low, high)
    return float(x) if abs(x) <= MAX_FINITE else math.inf if x > 0 else -math.inf


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of the two-cell downlink.

    N            BS antennas per cell, 1 to MAX_ANTENNAS
    M            relay antennas, 1 to MAX_ANTENNAS
    P            per-BS transmit power, positive and at most MAX_FINITE / 2
    noise_var    receiver noise variance sigma^2, positive and finite
    var_direct   own-cell channel variance sigma1^2, nonnegative and finite
    var_cross    cross-cell channel variance sigma2^2, likewise
    var_relay    relay channel variance sigma3^2, likewise
    rate         target rate R in bits per channel use, nonnegative and
                 below 1024, where 2^R overflows a float
    retx         total transmission attempts L (first try plus retries),
                 1 to MAX_ATTEMPTS

    Counts are read by ``whole`` and kept as int, the rest by ``real`` and
    kept as float, so bad input of any type raises ContractViolationError.

    The relay spends ``Pr_single`` = P on one user and ``Pr_multi`` = 2P on
    two; the verdicts read them only times var_relay.
    """

    N: int
    M: int
    P: float
    noise_var: float
    var_direct: float
    var_cross: float
    var_relay: float
    rate: float
    retx: int = 2

    def __post_init__(self):
        # each field read by its rule and stored as what the rule returns,
        # a count as int and a real as float; noise_var comes before P,
        # which at_snr forms from it. P is at most half the float range,
        # so the two-user budget 2P is finite, and 2^rate is finite too
        for name, rule, low, high in (
                ("N", whole, 1, MAX_ANTENNAS), ("M", whole, 1, MAX_ANTENNAS),
                ("noise_var", real, MIN_POSITIVE, MAX_FINITE),
                ("P", real, MIN_POSITIVE, MAX_FINITE / 2),
                ("var_direct", real, 0, MAX_FINITE),
                ("var_cross", real, 0, MAX_FINITE),
                ("var_relay", real, 0, MAX_FINITE),
                ("rate", real, 0, math.nextafter(sys.float_info.max_exp, 0)),
                ("retx", whole, 1, MAX_ATTEMPTS)):
            object.__setattr__(self, name,
                               rule(getattr(self, name), name, low, high))

    @classmethod
    def at_snr(cls, snr_db: float, *, noise_var: float,
               **kw) -> "SystemConfig":
        """Config whose per-BS power P lies snr_db above noise_var; both
        are read by ``real`` before any arithmetic."""
        snr_db, noise_var = real(snr_db, "snr_db"), real(noise_var, "noise_var")
        try:
            ratio = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            raise ContractViolationError(
                f"SNR of {snr_db} dB overflows the transmit power") from None
        return cls(P=noise_var * ratio, noise_var=noise_var, **kw)

    @property
    def Pr_single(self) -> float:
        """Relay power when retransmitting for one user: P."""
        return self.P

    @property
    def Pr_multi(self) -> float:
        """Relay power when retransmitting for both users: 2P."""
        return 2.0 * self.P


def substream(seed: int, context: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, context, index) key; the
    seed is Philox's 64-bit key, a whole number in [0, MAX_SEED], the
    index a whole number in [0, 2^64) and the context one in [0, 2^128),
    each read by ``whole``, so no two keys share a stream."""
    key = whole(seed, "seed", low=0, high=MAX_SEED)
    counter = ((whole(context, "context", low=0, high=2 ** 128 - 1) << 128)
               + (whole(index, "index", low=0, high=2 ** 64 - 1) << 64))
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def cn(rng: np.random.Generator, shape, var) -> np.ndarray:
    """Circularly symmetric complex Gaussian with per-entry variance var,
    a real in [0, MAX_FINITE] (``real``): 0 gives the zero channel, and a
    negative, NaN or infinite var, or one that is not a real number,
    raises ContractViolationError before anything is drawn."""
    var = real(var, "variance", 0, MAX_FINITE)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(var / 2.0) * z


def draw_bs_channels(n: int, rng: np.random.Generator,
                     rounds: int) -> np.ndarray:
    """Unit-variance BS-to-user power gains of ``rounds`` fresh rounds at
    n BS antennas, float (rounds, 2, 2), all Gamma(n, 1): the gain
    ||h_ij||^2 from BS j to user i is entry [i, j] times var_direct on the
    diagonal, times var_cross off it. Both engines read a direct attempt's
    rounds, the relay engine its attempts 0 and 1 as its rounds 1 and 2.
    n lies in [1, MAX_ANTENNAS] and rounds is at least 1, each read by
    ``whole``."""
    return rng.standard_gamma(whole(n, "n", high=MAX_ANTENNAS),
                              (whole(rounds, "rounds"), 2, 2))


STATS = 3                 # floats per relay trial: A, B and C


def draw_relay_stats(m: int, rng: np.random.Generator,
                     trials: int) -> np.ndarray:
    """Unit-variance relay-link statistics A, B and C of ``trials`` fresh
    relay trials at m relay antennas, float (trials, STATS), one row per
    trial.

    A, B and C are Gamma(m), Gamma(m - 1) and Gamma(1). For relay links
    g1, g2 of m entries of variance v, ||g1||^2 = v A,
    ||P_perp_g1 g2||^2 = v B and |g1^H g2|^2 / ||g1||^2 = v C, with A, B
    and C independent. So ||g2||^2 = v (B + C), the Gram term
    ||g1||^2 ||g2||^2 - |g1^H g2|^2 is v^2 A B, and
    ||P_perp_g2 g1||^2 = v A B / (B + C). m lies in [1, MAX_ANTENNAS],
    where m = 1 gives B = 0, and trials is at least 1, each read by
    ``whole``.
    """
    m = whole(m, "m", high=MAX_ANTENNAS)
    return rng.standard_gamma([m, m - 1, 1], (whole(trials, "trials"), STATS))


def span_coords(g1: np.ndarray, g2: np.ndarray):
    """``(Q, a, b, c)`` of the relay channels g1, g2 in their span, with Q
    complex (M, 2).

    Both relay designs keep their beams in span{g1, g2}: a beam component
    off that plane reaches neither user. One Householder QR of [g1 g2]
    gives the plane an orthonormal basis Q = [Q0 Q1] and the channels
    coordinates in it,

        g1 = a Q0,    g2 = c Q0 + b Q1,

    so |a|^2 = ||g1||^2, |b|^2 = ||P_perp_g1 g2||^2 and
    |c|^2 = |g1^H g2|^2 / ||g1||^2: at variance v, these are v A, v B and
    v C of ``draw_relay_stats``. Householder QR keeps Q orthonormal when
    the channels are parallel or zero, so neither design needs a threshold
    or a fallback axis. On a one-antenna relay the plane is a line: b = 0
    and Q's second column is zero.

    This is where both relay designs validate their channel pair: each
    channel is flattened to a complex vector, whatever its shape, and a
    pair of unequal lengths, a length M outside [1, MAX_ANTENNAS] (read by
    ``whole``) or a channel holding NaN or inf raises
    ContractViolationError.
    """
    g1, g2 = (np.asarray(g, dtype=complex).reshape(-1) for g in (g1, g2))
    if len(g1) != len(g2):
        raise ContractViolationError("relay channels must have equal length")
    m = whole(len(g1), "relay antennas", high=MAX_ANTENNAS)
    g = np.column_stack([g1, g2])
    if not np.isfinite(g).all():
        raise ContractViolationError("relay channels must be finite")
    q, r = np.linalg.qr(np.pad(g, ((0, max(0, 2 - m)), (0, 0))))
    return q[:m], r[0, 0], r[1, 1], r[0, 1]


def ratio(num, den=()) -> float:
    """prod(num) / prod(den) of finite nonnegative floats, den nonzero,
    from mantissas (multiplied, then divided, in the order given) and
    exponents, so only the result can under- or overflow: to 0 or inf."""
    m, e = 1.0, 0
    for x in num:
        f, k = math.frexp(x)
        m, e = m * f, e + k
    for x in den:
        f, k = math.frexp(x)
        m, e = m / f, e - k
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf
