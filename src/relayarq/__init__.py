"""Outage analytics and relay beamforming for a two-cell downlink with ARQ.

Two base stations serve one user each on the same resource, a shared
multi-antenna relay handles retransmissions. The package provides the
closed-form outage probabilities of the interference-limited direct
links (``outage``), optimal relay beamformers for the single-user and
two-user retransmission modes (``relay_single``, ``relay_multi``), and a
Monte Carlo engine that reproduces the system-level outage experiments
(``simulate``). Every name is imported from the module that defines it,
so importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
