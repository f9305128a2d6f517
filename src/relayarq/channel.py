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
channels for the single-draw ``beamform-*`` commands and the demos.

Randomness is counter-based: every (seed, context, index) key owns a
disjoint Philox substream, with the seed as Philox's 64-bit key, a whole
number from 0 to MAX_SEED = 2^64 - 1, and the context and index in two
counter words above the one the stream counts in. Every count, ceiling
and seed goes through one rule, ``whole``, and a config's real fields
through one finite check; each refuses bad input, of any type, with
``ContractViolationError`` before anything is drawn. How the Monte Carlo
engine keys and reads its substreams is set out in ``simulate``.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

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


def whole(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """value as an int in [low, high]: an integer (True is 1) or a real
    number with no fractional part; anything else (nan, inf, a str, None,
    a complex) raises ContractViolationError before it is compared to
    anything. This is the one rule for every count, its ceiling and the
    seed."""
    if not (isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ContractViolationError(f"{name} must be a whole number")
    if value < low:
        raise ContractViolationError(f"{name} must be at least {low}")
    if value > high:
        raise ContractViolationError(f"{name} must be at most {high}")
    return int(value)


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of the two-cell downlink.

    N            BS antennas per cell, at most MAX_ANTENNAS
    M            relay antennas, at most MAX_ANTENNAS
    P            per-BS transmit power
    noise_var    receiver noise variance sigma^2
    var_direct   own-cell channel variance sigma1^2
    var_cross    cross-cell channel variance sigma2^2
    var_relay    relay channel variance sigma3^2
    rate         target rate R in bits per channel use
    retx         total transmission attempts L (first try plus retries),
                 at most MAX_ATTEMPTS

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
        # a real number within float range: nan compares False against
        # every bound, and a str, None or complex is not Real
        if not all(isinstance(x, numbers.Real)
                   and abs(x) <= sys.float_info.max for x in (
                       self.P, self.noise_var, self.var_direct,
                       self.var_cross, self.var_relay, self.rate)):
            raise ContractViolationError("parameters must be finite numbers")
        if math.isinf(2.0 * float(self.P)):
            raise ContractViolationError(
                f"multiuser relay power 2P overflows at P = {self.P:g}")
        for name, high in (("N", MAX_ANTENNAS), ("M", MAX_ANTENNAS),
                           ("retx", MAX_ATTEMPTS)):    # counts, kept as int
            object.__setattr__(self, name,
                               whole(getattr(self, name), name, high=high))
        if self.P <= 0 or self.noise_var <= 0:
            raise ContractViolationError("powers and noise variance must be positive")
        if min(self.var_direct, self.var_cross, self.var_relay) < 0:
            raise ContractViolationError("channel variances must be nonnegative")
        if self.rate < 0:
            raise ContractViolationError("rate must be nonnegative")
        if self.rate >= sys.float_info.max_exp:    # 2.0 ** rate overflows
            raise ContractViolationError(
                f"rate must be below {sys.float_info.max_exp} bits per "
                "channel use")

    @classmethod
    def at_snr(cls, snr_db: float, *, noise_var: float,
               **kw) -> "SystemConfig":
        """Config whose per-BS power P lies snr_db above noise_var."""
        try:
            ratio = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            raise ContractViolationError(
                f"SNR of {snr_db} dB overflows the transmit power") from None
        return cls(P=noise_var * ratio, noise_var=noise_var, **kw)

    @property
    def Pr_single(self) -> float:
        """Relay power when retransmitting for one user: P."""
        return float(self.P)

    @property
    def Pr_multi(self) -> float:
        """Relay power when retransmitting for both users: 2P."""
        return 2.0 * float(self.P)


def substream(seed: int, context: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, context, index) key; the
    seed is Philox's 64-bit key, a whole number in [0, MAX_SEED]
    (``whole``)."""
    key = whole(seed, "seed", low=0, high=MAX_SEED)
    counter = (int(context) << 128) + (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def cn(rng: np.random.Generator, shape, var) -> np.ndarray:
    """Circularly symmetric complex Gaussian with per-entry variance var,
    a float in [0, inf): 0 gives the zero channel, and a negative, NaN or
    infinite var raises ContractViolationError before anything is drawn."""
    if not 0 <= var < math.inf:
        raise ContractViolationError(f"variance must be in [0, inf), not {var}")
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(var / 2.0) * z


def draw_bs_channels(n: int, rng: np.random.Generator,
                     rounds: int) -> np.ndarray:
    """Unit-variance BS-to-user power gains of ``rounds`` fresh rounds at
    n BS antennas, float (rounds, 2, 2), all Gamma(n, 1): the gain
    ||h_ij||^2 from BS j to user i is entry [i, j] times var_direct on the
    diagonal, times var_cross off it. Both engines read a direct attempt's
    rounds, the relay engine its attempts 0 and 1 as its rounds 1 and 2."""
    return rng.standard_gamma(n, (rounds, 2, 2))


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
    ||P_perp_g2 g1||^2 = v A B / (B + C).
    """
    return rng.standard_gamma([m, m - 1, 1], (trials, STATS))
