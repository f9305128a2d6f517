"""Relay beamforming when exactly one user needs a retransmission.

The relay retransmits to the failed user while the other cell's BS serves
its own user with a fresh message. The relay therefore steers all of its
power at the failed user's channel subject to radiating nothing toward the
protected user:

    maximize ||B^H g_target||^2
    s.t.     B^H g_protect = 0,   tr(B B^H) = Pr.

The optimum is rank one: a single beam sqrt(Pr) P_perp g_target /
||P_perp g_target||, with P_perp the projector orthogonal to g_protect. Its
value is Pr ||P_perp g_target||^2. ``solve_single_user_beamformer``
implements that closed form; the test suite checks it against the stacked
eigenproblem over vec(B).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError
from .linalg import conjT, null_basis, project_off

DEGENERATE_GAIN = 1e-12   # squared projection below this counts as unservable


@dataclass(frozen=True)
class Beamformer:
    """Relay transmit beamformer with bookkeeping for its design contract.

    matrix         M x 1 complex beamforming matrix
    power          tr(B B^H), equals the relay power budget
    null_residual  ||B^H g_protect|| achieved by the design
    degenerate     True when g_target lies in span(g_protect), in which case
                   the objective is ~0 and the returned matrix is an
                   arbitrary unit-power direction inside the null space
    """

    matrix: np.ndarray
    power: float
    null_residual: float
    degenerate: bool = False


def beamform_gain(b: np.ndarray, g: np.ndarray) -> float:
    """||B^H g||^2."""
    return float(np.linalg.norm(conjT(b) @ np.asarray(g).reshape(-1)) ** 2)


def solve_single_user_beamformer(g_protect: np.ndarray, g_target: np.ndarray,
                                 power: float) -> Beamformer:
    """Optimal zero-forcing beamformer, closed form.

    Objective value equals power * ||P_perp g_target||^2 (projector
    orthogonal to g_protect).
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
    if not g_protect.any():
        raise DegenerateInputError("protected channel is zero")
    # a second pass restores the orthogonality that cancellation costs the
    # first when g_target is nearly parallel to g_protect
    w = project_off(project_off(g_target, g_protect), g_protect)
    gain = float(np.vdot(w, w).real)
    b = np.zeros((m, 1), dtype=complex)
    degenerate = gain <= DEGENERATE_GAIN * float(
        np.vdot(g_target, g_target).real + 1.0)
    if degenerate:
        b[:, 0] = np.sqrt(power) * null_basis(g_protect)[:, 0]
    else:
        b[:, 0] = np.sqrt(power) * (w / np.sqrt(gain))
    resid = float(np.linalg.norm(conjT(b) @ g_protect))
    return Beamformer(matrix=b, power=float(np.trace(b @ conjT(b)).real),
                      null_residual=resid, degenerate=degenerate)


def optimal_gain(g_protect: np.ndarray, g_target: np.ndarray, power: float) -> float:
    """Analytic optimum power * ||(I - g_p g_p^H / ||g_p||^2) g_target||^2."""
    g_p = np.asarray(g_protect, dtype=complex).reshape(-1)
    g_t = np.asarray(g_target, dtype=complex).reshape(-1)
    if not g_p.any():
        raise DegenerateInputError("protected channel is zero")
    proj = project_off(g_t, g_p)
    return float(power * np.vdot(proj, proj).real)
