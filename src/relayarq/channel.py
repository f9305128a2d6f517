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
verdicts read the variances (``simulate``). ``cn`` draws complex
channels for the single-draw ``beamform-*`` commands and the demos.

Randomness is counter-based: every (seed, context, index) key owns a
disjoint Philox substream, with the seed as Philox's key and the context
and index in two counter words above the one the stream counts in. The
Monte Carlo engine keys a substream by what defines a round: the direct
engine one per attempt, the relay engine one per run. Each stream is
read in trial order, so a run with more trials draws a shorter run's
values first, and how many trials a call draws at once changes none of
them.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

# substream contexts; each top-level consumer uses its own lane
CTX_DIRECT = 1
CTX_RELAY = 2
CTX_GENERIC = 0


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of the two-cell downlink.

    N            BS antennas per cell
    M            relay antennas
    P            per-BS transmit power
    Pr_single    relay power when retransmitting for one user (default P)
    Pr_multi     relay power when retransmitting for both users (default 2P)
    noise_var    receiver noise variance sigma^2
    var_direct   own-cell channel variance sigma1^2
    var_cross    cross-cell channel variance sigma2^2
    var_relay    relay channel variance sigma3^2
    rate         target rate R in bits per channel use
    retx         total transmission attempts L (first try plus retries)
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
    Pr_single: float = None  # type: ignore[assignment]
    Pr_multi: float = None   # type: ignore[assignment]

    def __post_init__(self):
        if self.Pr_single is None:
            object.__setattr__(self, "Pr_single", float(self.P))
        if self.Pr_multi is None:
            pr_multi = 2.0 * float(self.P)
            if math.isfinite(self.P) and not math.isfinite(pr_multi):
                raise ContractViolationError(
                    f"multiuser relay power 2P overflows at P = {self.P:g}")
            object.__setattr__(self, "Pr_multi", pr_multi)
        # nan compares False against every bound below, so it is caught here
        if not all(math.isfinite(x) for x in (
                self.P, self.noise_var, self.var_direct, self.var_cross,
                self.var_relay, self.rate, self.Pr_single, self.Pr_multi)):
            raise ContractViolationError("parameters must be finite numbers")
        if self.N < 1 or self.M < 1:
            raise ContractViolationError("antenna counts must be at least 1")
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
        if self.retx < 1:
            raise ContractViolationError("attempt budget must be at least 1")
        if self.Pr_single <= 0 or self.Pr_multi <= 0:
            raise ContractViolationError("relay powers must be positive")

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
    def sinr_threshold(self) -> float:
        """gamma = 2^R - 1."""
        return 2.0 ** self.rate - 1.0


def substream(seed: int, context: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, context, index) key."""
    counter = (int(context) << 128) + (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1),
                                                counter=counter))


def cn(rng: np.random.Generator, shape, var) -> np.ndarray:
    """Circularly symmetric complex Gaussian with per-entry variance var."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(var / 2.0) * z


def draw_bs_channels(cfg: SystemConfig, rng: np.random.Generator,
                     rounds: int) -> np.ndarray:
    """Unit-variance BS-to-user power gains of ``rounds`` fresh rounds,
    float (rounds, 2, 2), all Gamma(N, 1): the gain ||h_ij||^2 from BS j
    to user i is entry [i, j] times var_direct on the diagonal, times
    var_cross off it."""
    return rng.standard_gamma(cfg.N, (rounds, 2, 2))


# columns of a relay trial's statistics: round-1 gains e1[i, j] at 2 i + j,
# the round-2 cross gains e2[f, 1 - f] a failed user f would see, and the
# relay links' A, B and C
_E1, _Y, _A, _B, _C = slice(0, 4), 4, 6, 7, 8
STATS = 9                 # floats per relay trial


def draw_relay_stats(cfg: SystemConfig, rng: np.random.Generator,
                     out: np.ndarray) -> np.ndarray:
    """Write the unit-variance statistics of ``len(out)`` fresh relay
    trials into out, float (len(out), STATS), and return it.

    Every column is Gamma: the 6 BS gains Gamma(N, 1), as in
    ``draw_bs_channels``, and the relay links' A, B and C Gamma(M),
    Gamma(M - 1) and Gamma(1). For relay links g1, g2 of M entries of
    variance v, ||g1||^2 = v A, ||P_perp_g1 g2||^2 = v B and
    |g1^H g2|^2 / ||g1||^2 = v C, with A, B and C independent. So
    ||g2||^2 = v (B + C), the Gram term ||g1||^2 ||g2||^2 - |g1^H g2|^2 is
    v^2 A B, and ||P_perp_g2 g1||^2 = v A B / (B + C).
    """
    return rng.standard_gamma([cfg.N] * 6 + [cfg.M, cfg.M - 1, 1], out=out)
