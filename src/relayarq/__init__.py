"""Outage analytics and relay beamforming for a two-cell downlink with ARQ.

Two base stations serve one user each on the same resource, a shared
multi-antenna relay handles retransmissions. The package provides the
closed-form outage probabilities of the interference-limited direct
links, optimal relay beamformers for the single-user and two-user
retransmission modes, and a Monte Carlo engine that reproduces the
system-level outage experiments.
"""

from .channel import (CTX_DIRECT, CTX_GENERIC, CTX_RELAY, SystemConfig,
                      draw_bs_channels, draw_relay_stats, substream)
from .errors import (ContractViolationError, DegenerateInputError,
                     DimensionError, RelayArqError)
from .linalg import span_coords
from .outage import (arq_outage, cdf_diff_exp, outage_interference_n3,
                     outage_single_user)
from .relay_multi import MultiBeamformer, balanced_sinr, max_min_sinr
from .relay_single import optimal_gain, solve_single_user_beamformer
from .simulate import (BLOCK, OutageEstimate, RelayEstimate, RelayVerdicts,
                       judge_relay, run_experiment, simulate_direct,
                       simulate_relay)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
