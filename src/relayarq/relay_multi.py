"""Max-min SINR relay beamforming for two simultaneous users.

The relay retransmits both users' messages at once while the base stations
stay silent, so each user sees the other's relay beam as interference:

    SINR_i = |h_i^H b_i|^2 / (|h_i^H b_j|^2 + noise_var),

and the design maximizes min(SINR_1, SINR_2) subject to
||b_1||^2 + ||b_2||^2 <= power. The optimum is one beam per user in
span{h1, h2}; under one total-power budget it follows from uplink-downlink
duality (Schubert & Boche, IEEE T-VT 2004). ``max_min_sinr`` works in the
coordinates of ``linalg.span_coords``, h1 = (a, 0) and h2 = (c, b), with
A, B, C their squared magnitudes and q~ = q / noise_var:

* Dual uplink: user j transmits q_j, q_1 + q_2 = power. The SINRs balance
  where q_1 A = q_2 (B + C), at t = (A + q~_2 A B) / (1/q~_1 + A), the
  optimal max-min SINR in both directions. ``balanced_uplink``, which the
  Monte Carlo engine calls too, takes the budget power / noise_var and
  works in noise units throughout. Where 1/q~_1 overflows (q~_1 below
  2^-1024), it forms the equal t = q~_1 (A + q~_2 A B) / (1 + q~_1 A), so
  an optimum in the subnormal range reads as itself, not 0.
* Filters: the 2 x 2 adjugate turns the MMSE filters
  (I + q~_j h_j h_j^H)^-1 h_i into v1 = (1 + q~_2 B, -q~_2 b conj(c)) and
  v2 = (c, b (1 + q~_1 A)), whose inner products with the channels are
  exact: h1^H v1 = conj(a) (1 + q~_2 B), h2^H v1 = conj(c),
  h1^H v2 = conj(a) c and h2^H v2 = C + B (1 + q~_1 A). Nothing cancels.
* Powers: with a_ik = |h^H u|^2 of user i + 1 and unit filter k + 1, both
  downlink SINRs equal t at p_1 = q_1 (a11 + t a01) / (a11 + t a10) and
  p_2 = q_2 (a00 + t a10) / (a00 + t a01), ratios of positive sums: the
  uplink and downlink systems share one determinant, which drops out.

The coordinates are scaled to O(1) and power / noise_var is carried in
their units, so no intermediate depends on the channels' or the noise's
absolute scale. Where that budget overflows a float, the optimum need not
(very unequal gains; parallel channels, whose optimum is below 1), so the
design then runs in numpy's extended type and refuses only an optimum
that overflows. Where that type is no wider than a float, it refuses
wherever the budget overflows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionError
from .linalg import ratio, span_coords


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


def balanced_uplink(n1, n2, gram, rho):
    """Balanced dual-uplink powers and the common SINR, in closed form.

    Takes n_i = ||h_i||^2, gram = ||h1||^2 ||h2||^2 - |h1^H h2|^2, batched
    alike, and the budget rho = power / noise_var, and returns arrays
    ``(q~1, q~2, t)`` of their shape in noise units (module docstring).
    Where either channel is zero that user cannot be reached: t is 0
    there, and q~1, q~2 carry no meaning.
    """
    reach = (n1 > 0) & (n2 > 0)
    total = np.where(reach, n1 + n2, 1.0)
    # far above the noise t overflows to inf, and where a user is
    # unreachable t is 0 whatever it reads
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q1 = rho * (n2 / total)
        q2 = rho * (n1 / total)
        num, inv = n1 + q2 * gram, 1 / q1
        t = num / (inv + n1)
        low = inv == math.inf      # q~1 < 2^-1024: the equal low-SNR form
        if np.any(low):
            t = np.where(low, q1 * num / (1 + q1 * n1), t)
    return q1, q2, np.where(reach, t, 0.0)


def max_min_sinr(h1: np.ndarray, h2: np.ndarray, power: float,
                 noise_var: float = 1.0) -> MultiBeamformer:
    """Best common SINR for two users sharing the relay's power budget.

    Returns beams that reach ``t_star`` for both users (to rounding) with
    total power at most ``power``. A user whose channel is zero cannot be
    reached, so the optimum is then 0 and both beams are zero. Raises
    ContractViolationError where the optimum overflows a float (or, where
    numpy's extended type is no wider, where power ||h||^2 / noise_var
    does).
    """
    h1 = np.asarray(h1, dtype=complex).reshape(-1)
    h2 = np.asarray(h2, dtype=complex).reshape(-1)
    if h1.shape != h2.shape:
        raise DimensionError("user channels must have equal length")
    if not (0.0 < power < np.inf and 0.0 < noise_var < np.inf):
        raise ContractViolationError(
            "power and noise must be positive and finite")

    q, a, b, c = span_coords(h1, h2)
    scale = float(max(abs(a), abs(b), abs(c))) or 1.0
    a, b, c = a / scale, b / scale, c / scale
    # the budget in the noise units of the scaled channels, as q1 .. p2 are.
    # Where it overflows, the extended type's exponent range holds every
    # intermediate of float inputs (x86-64 and aarch64 Linux); where that
    # type is no wider than a float, rho stays inf, t reads inf or NaN and
    # the call refuses
    rho = ratio((power, scale, scale), (noise_var,))
    if rho == math.inf and (np.finfo(np.longdouble).maxexp
                            > np.finfo(float).maxexp):
        rho = np.longdouble(power) * scale * scale / noise_var
        a, b, c = (np.clongdouble(x) for x in (a, b, c))
    A, B, C = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2
    q1, q2, t = balanced_uplink(A, B + C, A * B, rho)
    t = float(t)
    if not t < math.inf:
        raise ContractViolationError(
            "the max-min SINR overflows at this power")
    if not t > 0:             # a zero channel, or t underflowed
        zero = np.zeros(h1.size, dtype=complex)
        return MultiBeamformer(zero, zero.copy(), 0.0, 0.0, 0.0, 0.0, 0.0)

    v1 = np.array([1 + q2 * B, -q2 * b * np.conj(c)])
    v2 = np.array([c, b * (1 + q1 * A)])
    norm1, norm2 = np.hypot(*abs(v1)), np.hypot(*abs(v2))
    a00 = (abs(a) * v1[0].real / norm1) ** 2
    a10 = (abs(c) / norm1) ** 2
    a01 = (abs(a) * abs(c) / norm2) ** 2
    a11 = ((C + B * (1 + q1 * A)) / norm2) ** 2
    # from the mantissas of q1 and q2, which changes no bit while q1 (a11 +
    # t a01) and q2 (a00 + t a10) are normal floats; where one gain is far
    # below the other they are subnormal, though p1 and p2 are not
    (m1, e1), (m2, e2) = np.frexp(q1), np.frexp(q2)
    p1 = np.ldexp(m1 * (a11 + t * a01) / (a11 + t * a10), e1)
    p2 = np.ldexp(m2 * (a00 + t * a10) / (a00 + t * a01), e2)
    shrink = min(1.0, rho / (p1 + p2))        # rounding may overshoot
    p1, p2 = p1 * shrink, p2 * shrink
    return MultiBeamformer(
        b1=(np.sqrt(power * (p1 / rho)) * (q @ (v1 / norm1))).astype(complex),
        b2=(np.sqrt(power * (p2 / rho)) * (q @ (v2 / norm2))).astype(complex),
        t_star=t, sinr1=float(p1 * a00 / (p2 * a01 + 1)),
        sinr2=float(p2 * a11 / (p1 * a10 + 1)),
        q1=float(power * (q1 / rho)), q2=float(power * (q2 / rho)))
