"""Relay beamforming when exactly one user needs a retransmission.

The relay retransmits to the failed user while the other cell's BS serves
its own user with a fresh message. The relay therefore steers all of its
power at the failed user's channel subject to radiating nothing toward the
protected user:

    maximize |b^H g_target|^2
    s.t.     b^H g_protect = 0,   ||b||^2 = Pr.

The optimum is a single beam sqrt(Pr) P_perp g_target / ||P_perp g_target||,
with P_perp the projector orthogonal to g_protect, and its value is
Pr ||P_perp g_target||^2. ``optimal_gain`` is that value, batched (the
Monte Carlo engine reads the same gain off its Gamma draws), and
``solve_single_user_beamformer`` builds the beam. The test suite checks
both against the stacked eigenproblem over vec(B), which allows any
number of streams.
"""

import numpy as np

from .errors import DegenerateInputError, DimensionError
from .linalg import project_off

DEGENERATE_GAIN = 1e-12   # squared projection below this counts as unservable


def optimal_gain(g_protect: np.ndarray, g_target: np.ndarray, power: float):
    """Optimum power * ||P_perp g_target||^2 of the zero-forcing design.

    Batched over leading axes, antennas on the last axis. Where g_protect
    is zero there is nothing to null, and the value is power * ||g_target||^2.
    """
    return power * np.sum(np.abs(project_off(g_target, g_protect)) ** 2,
                          axis=-1)


def solve_single_user_beamformer(g_protect: np.ndarray, g_target: np.ndarray,
                                 power: float) -> np.ndarray:
    """Optimal zero-forcing beam b, a length-M vector with ||b||^2 = power.

    When g_target lies in span(g_protect) no beam reaches it, and b is a
    direction orthogonal to g_protect that carries the full power.
    """
    g_protect = np.asarray(g_protect, dtype=complex).reshape(-1)
    g_target = np.asarray(g_target, dtype=complex).reshape(-1)
    m = g_protect.size
    if g_target.size != m:
        raise DimensionError("channel vectors must share the antenna count")
    if m < 2:
        raise DegenerateInputError(
            "zero-forcing toward one user needs at least two relay antennas")
    if power <= 0:
        raise DegenerateInputError("relay power must be positive")
    # a second pass restores the orthogonality that cancellation costs the
    # first when g_target is nearly parallel to g_protect
    w = project_off(project_off(g_target, g_protect), g_protect)
    gain = float(np.vdot(w, w).real)
    if gain <= DEGENERATE_GAIN * float(np.vdot(g_target, g_target).real + 1.0):
        # the axis where |g_protect| is smallest keeps at least 1 - 1/M of
        # its length once projected off g_protect
        w = np.zeros(m, dtype=complex)
        w[np.argmin(np.abs(g_protect))] = 1.0
        w = project_off(w, g_protect)
        gain = float(np.vdot(w, w).real)
    return np.sqrt(power) * (w / np.sqrt(gain))
