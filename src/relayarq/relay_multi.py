"""Max-min SINR relay beamforming for two simultaneous users.

The relay retransmits both users' messages at once while the base stations
stay silent, so each user sees the other's relay beam as interference:

    SINR_i = |h_i^H b_i|^2 / (|h_i^H b_j|^2 + noise_var),

and the design maximizes min(SINR_1, SINR_2) subject to
||b_1||^2 + ||b_2||^2 <= power. The semidefinite relaxation of this problem
is tight (the optimum is one beam per user), and under a single total-power
budget the optimum follows from uplink-downlink duality (Schubert & Boche,
IEEE T-VT 2004; Wiesel, Eldar & Shamai, IEEE T-SP 2006):

* In the dual uplink, user j transmits with power q_j, q_1 + q_2 = power,
  and the relay receives user i with the MMSE filter
  (noise_var I + q_j h_j h_j^H)^-1 h_i. By Sherman-Morrison its SINR is
  q_i f_i(q_j) with the scalar
  f_i(q_j) = (||h_i||^2 - q_j |h_i^H h_j|^2 / (noise_var + q_j ||h_j||^2))
             / noise_var.
* Write x_i = q_i ||h_i||^2 and G = ||h_1||^2 ||h_2||^2 - |h_1^H h_2|^2.
  Over a common denominator, the gap between the two uplink SINRs
  factors as (x_1 - x_2) (noise_var (noise_var + x_1 + x_2) + q_1 q_2 G),
  and the second factor is positive, so the SINRs balance exactly where
  x_1 = x_2: q_1 = power ||h_2||^2 / (||h_1||^2 + ||h_2||^2). The balanced
  level t = q_1 (||h_1||^2 noise_var + q_2 G)
            / (noise_var (noise_var + q_1 ||h_1||^2))
  is the optimal max-min SINR in both directions. In noise units,
  q~ = q / noise_var, it reads t = (||h_1||^2 + q~_2 G) / (1/q~_1 + ||h_1||^2),
  so the channels enter only through ||h_1||^2, ||h_2||^2 and G.
* The downlink beams point along the unit MMSE filters, and their powers
  solve the 2 x 2 linear system that sets both downlink SINRs to t; those
  powers add up to the same budget.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionError
from .linalg import project_off, sq_norm


@dataclass(frozen=True)
class MultiBeamformer:
    """Solution of one max-min SINR design."""

    b1: np.ndarray            # length-M beam serving user 1
    b2: np.ndarray
    t_star: float             # optimal common SINR
    sinr1: float              # achieved by the beams
    sinr2: float
    q1: float                 # balanced dual-uplink powers, q1 + q2 = power
    q2: float


def uplink_gains(h1: np.ndarray, h2: np.ndarray):
    """The statistics the max-min design sees its channels through.

    Channels are batched over leading axes (antennas along the last axis);
    returns ``(||h1||^2, ||h2||^2, ||P_perp h2||^2)`` of the batch shape,
    with P_perp the projector off h1. The Gram term
    ||h1||^2 ||h2||^2 - |h1^H h2|^2 is the product of the first and the
    third; going through the projection keeps its relative accuracy for
    nearly parallel channels.
    """
    return sq_norm(h1), sq_norm(h2), sq_norm(project_off(h2, h1))


def balanced_uplink(n1, n2, gram, power: float, noise_var: float):
    """Balanced dual-uplink powers and the common SINR, in closed form.

    Takes n_i = ||h_i||^2 and gram = ||h1||^2 ||h2||^2 - |h1^H h2|^2,
    batched alike, and returns arrays ``(q1, q2, t)`` of their shape. t is
    computed in noise units, q~ = q / noise_var:
    t = (n1 + q~2 gram) / (1 / q~1 + n1), so only power / noise_var enters
    and no intermediate over- or underflows with the noise's absolute
    scale. Where either channel is zero that user cannot be reached: t is
    0 there, and q1, q2 carry no meaning.
    """
    reach = (n1 > 0) & (n2 > 0)
    total = np.where(reach, n1 + n2, 1.0)
    q1 = power * (n2 / total)
    q2 = power * (n1 / total)
    # far above the noise t overflows to inf, and far below it (or where a
    # user is unreachable) noise_var / q1 does: both are the right verdict
    with np.errstate(over="ignore", divide="ignore"):
        t = (n1 + q2 / noise_var * gram) / (noise_var / q1 + n1)
    return q1, q2, np.where(reach, t, 0.0)


def max_min_sinr(h1: np.ndarray, h2: np.ndarray, power: float,
                 noise_var: float = 1.0) -> MultiBeamformer:
    """Best common SINR for two users sharing the relay's power budget.

    Returns beams that reach ``t_star`` for both users (to rounding) with
    total power at most ``power``. A user whose channel is zero cannot be
    reached, so the optimum is then 0 and both beams are zero.
    """
    h1 = np.asarray(h1, dtype=complex).reshape(-1)
    h2 = np.asarray(h2, dtype=complex).reshape(-1)
    if h1.shape != h2.shape:
        raise DimensionError("user channels must have equal length")
    if not (0.0 < power < np.inf and 0.0 < noise_var < np.inf):
        raise ContractViolationError(
            "power and noise must be positive and finite")

    if not (h1.any() and h2.any()):
        zero = np.zeros(h1.size, dtype=complex)
        return MultiBeamformer(b1=zero, b2=zero.copy(), t_star=0.0,
                               sinr1=0.0, sinr2=0.0, q1=0.0, q2=0.0)
    n1, n2, perp = (float(x) for x in uplink_gains(h1, h2))
    q1, q2, t = (float(x) for x in balanced_uplink(n1, n2, n1 * perp, power,
                                                   noise_var))
    s = noise_var
    cross = np.vdot(h2, h1)                   # h2^H h1
    u1 = h1 - h2 * (q2 * cross / (s + q2 * n2))
    u2 = h2 - h1 * (q1 * np.conj(cross) / (s + q1 * n1))
    u1 /= np.linalg.norm(u1)
    u2 /= np.linalg.norm(u2)
    # a[i, k] = |h_i^H u_k|^2; both downlink SINRs equal t when
    # p_1 a11 - t a12 p_2 = t s  and  p_2 a22 - t a21 p_1 = t s
    a = np.abs(np.array([h1, h2]).conj() @ np.array([u1, u2]).T) ** 2
    det = a[0, 0] * a[1, 1] - t * t * a[0, 1] * a[1, 0]
    p1 = t * s * (a[1, 1] + t * a[0, 1]) / det
    p2 = t * s * (a[0, 0] + t * a[1, 0]) / det
    scale = min(1.0, power / (p1 + p2))       # rounding may overshoot
    p1, p2 = p1 * scale, p2 * scale
    return MultiBeamformer(
        b1=np.sqrt(p1) * u1, b2=np.sqrt(p2) * u2, t_star=t,
        sinr1=float(p1 * a[0, 0] / (p2 * a[0, 1] + s)),
        sinr2=float(p2 * a[1, 1] / (p1 * a[1, 0] + s)),
        q1=q1, q2=q2)
