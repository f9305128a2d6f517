"""System configuration and seeded channel generation.

Two single-antenna users, one N-antenna base station per cell, one shared
M-antenna relay. All links are i.i.d. circularly symmetric complex Gaussian,
flat per transmission round:

* ``var_direct``  per-entry variance of each user's own-cell BS link,
* ``var_cross``   variance of the other cell's interfering BS link,
* ``var_relay``   variance of the relay-to-user link (same for both users).

Per-complex-entry variance s means real and imaginary parts each carry s/2.

Randomness is counter-based: every (seed, context, index) triple owns a
disjoint Philox substream. The Monte Carlo engine keys one substream per
block of trials and draws each block's channels as whole arrays, so results
are reproducible no matter how blocks are partitioned across workers.
"""

import math
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
            object.__setattr__(self, "Pr_multi", 2.0 * float(self.P))
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
        if self.retx < 1:
            raise ContractViolationError("attempt budget must be at least 1")
        if self.Pr_single <= 0 or self.Pr_multi <= 0:
            raise ContractViolationError("relay powers must be positive")

    @classmethod
    def at_snr(cls, snr_db: float, *, noise_var: float,
               **kw) -> "SystemConfig":
        """Config whose per-BS power P lies snr_db above noise_var."""
        return cls(P=noise_var * 10.0 ** (snr_db / 10.0), noise_var=noise_var,
                   **kw)

    @property
    def sinr_threshold(self) -> float:
        """gamma = 2^R - 1."""
        return 2.0 ** self.rate - 1.0


def substream(seed: int, context: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, context, index) triple."""
    counter = (int(context) << 128) + (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1),
                                                counter=counter))


def cn(rng: np.random.Generator, shape, var) -> np.ndarray:
    """Circularly symmetric complex Gaussian with per-entry variance var
    (a number, or an array that broadcasts against ``shape``)."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(var / 2.0) * z


def draw_bs_channels(cfg: SystemConfig, rng: np.random.Generator,
                     rounds: int) -> np.ndarray:
    """BS-to-user channels of ``rounds`` fresh rounds, (rounds, 2, 2, N).

    Entry [i, i] uses var_direct, entry [i, j] with j != i uses var_cross.
    """
    var = np.array([[cfg.var_direct, cfg.var_cross],
                    [cfg.var_cross, cfg.var_direct]])
    return cn(rng, (rounds, 2, 2, cfg.N), var[..., None])


def draw_relay_channels(cfg: SystemConfig, rng: np.random.Generator,
                        rounds: int) -> np.ndarray:
    """Relay-to-user channels of ``rounds`` fresh rounds, (rounds, 2, M)."""
    return cn(rng, (rounds, 2, cfg.M), cfg.var_relay)
