"""Max-min SINR relay beamforming for two simultaneous users.

The relay retransmits both users' messages at once while the base stations
stay silent, so each user sees the other's relay beam as interference:

    SINR_i = |h_i^H b_i|^2 / (|h_i^H b_j|^2 + noise_var),

and the design maximizes min(SINR_1, SINR_2) subject to
||b_1||^2 + ||b_2||^2 <= power. The optimum is one beam per user in
span{h1, h2}; under one total-power budget it follows from uplink-downlink
duality (Schubert & Boche, IEEE T-VT 2004) and depends on two numbers:

    u = power / (noise_var / ||h1||^2 + noise_var / ||h2||^2)

and beta, the squared sine of the angle between h1 and h2. With
omega = 1 / (1 + u) and w = u omega, it is

    t = u (1 + u beta) / (1 + u) = w (1 + x),    x = u beta,

which ``balanced_sinr`` forms, batched; the Monte Carlo engine calls it
too. ``max_min_sinr`` divides each channel's coordinates in
``channel.span_coords`` by that channel's own norm, so h1 / ||h1|| =
(alpha, 0) and h2 / ||h2|| = (c, b), with |alpha| = 1, beta = |b|^2 and
gamma = |c|^2 = 1 - beta:

* Dual uplink: user i transmits the share f_i = ||h_j||^2 / (||h1||^2 +
  ||h2||^2) of the power, so both users see the uplink SNR u, and both
  SINRs balance at t, the optimal max-min SINR in both directions.
* Filters: the MMSE filters (I + u e_j e_j^H)^-1 e_i of the unit channels
  e_i are v1 = alpha (beta + omega gamma, -w b conj(c)) and
  v2 = (omega c, b). Both own gains are (beta + omega gamma)^2 / ||v_i||^2,
  the cross gains omega G12 and omega G21, with G12 = omega gamma /
  ||v2||^2 and G21 = omega gamma / ||v1||^2.
* Powers: both downlink SINRs equal t where user i takes the share
  pi_i = (w G_ij + f_i) / (w (G12 + G21) + 1) of the budget. Each SINR is
  reported as t times pi_i (1 + w G_ji) / (pi_j w G_ij + f_i), a factor
  that is 1 in exact arithmetic, since u (beta + omega gamma) = t.
* An exactly aligned pair (b = 0) puts both beams on one line, with
  pi_i = (w + omega f_i) / (2 w + omega), where omega may be 0.

Only u and x carry the channels' and the noise's scale, and
``channel.ratio`` forms them from the norms; the rest are unit
coordinates, shares and gains relative to the unit channels. The shares
are formed from their square roots, since far apart norms put the strong
user's f_i and pi_i below the float range while its beam is not. So the
design runs in floats at every scale and on every platform, and refuses
only an optimum that overflows. Its input contract is the single-user
design's: ``span_coords`` validates the channel pair, and the budget, like
the noise, is a real in [MIN_POSITIVE, MAX_FINITE], read by
``channel.real``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (MAX_FINITE, MIN_POSITIVE, ContractViolationError,
                      ratio, real, span_coords)


@dataclass(frozen=True)
class MultiBeamformer:
    """Solution of one max-min SINR design."""

    b1: np.ndarray            # length-M beam serving user 1
    b2: np.ndarray
    t_star: float             # optimal common SINR
    sinr1: float              # achieved by the beams
    sinr2: float
    q1: float                 # balanced dual-uplink powers, q1 + q2 = power,
                              # or both 0 where t* is 0
    q2: float


def balanced_sinr(u, x):
    """``(omega, w, t)`` of the balanced design at u and x = u beta,
    batched alike (module docstring): omega = 1 / (1 + u), w = u omega
    and the max-min SINR t = w (1 + x). Where u is inf, omega is 0 and w
    is 1; where u is 0, so is t.
    """
    with np.errstate(invalid="ignore"):      # inf * 0 where u is inf
        omega = 1 / (1 + u)
        w = np.fmin(u * omega, 1.0)
    return omega, w, w * (1 + x)


def max_min_sinr(h1: np.ndarray, h2: np.ndarray, power: float,
                 noise_var: float = 1.0) -> MultiBeamformer:
    """Best common SINR for two users sharing the relay's power budget.

    Returns beams that reach ``t_star`` for both users, to the rounding of
    float beams, with total power at most ``power``: a float beam b_j moves
    |h_i^H b_j| by about eps ||h_i|| ||b_j||, which shows where one user's
    beam leaks into a far stronger channel than its own. A user whose
    channel is zero cannot be reached, so the optimum is then 0 and both
    beams are zero, as they are for an optimum below the float range.
    Raises ContractViolationError where the optimum overflows a float.
    """
    q, a, b, c = span_coords(h1, h2)
    power = real(power, "power", MIN_POSITIVE, MAX_FINITE)
    noise_var = real(noise_var, "noise_var", MIN_POSITIVE, MAX_FINITE)

    s1, s2 = float(abs(a)), math.hypot(abs(b), abs(c))
    zero = np.zeros(len(q), dtype=complex)
    if not (s1 and s2):       # a user the relay cannot reach
        return MultiBeamformer(zero, zero.copy(), 0.0, 0.0, 0.0, 0.0, 0.0)
    b, c = b / s2, c / s2
    # e_i = sqrt(f_i), and u = power h^2 / noise with h = s1 e1 = s2 e2,
    # formed from the smaller norm, whose e_i is at least 1/sqrt(2); nothing
    # is squared below the float range
    e1, e2 = 1 / math.hypot(1, s1 / s2), 1 / math.hypot(1, s2 / s1)
    h = s1 * e1 if s1 < s2 else s2 * e2
    omega, w, t = balanced_sinr(ratio((power, h, h), (noise_var,)),
                                ratio((power, h, h, abs(b), abs(b)),
                                      (noise_var,)))
    t = float(t)
    if not t < math.inf:
        raise ContractViolationError(
            "the max-min SINR overflows at this power")
    if not t > 0:             # t underflowed
        return MultiBeamformer(zero, zero.copy(), 0.0, 0.0, 0.0, 0.0, 0.0)

    # pi_i = (x_ij + y f_i) / z: x_ij = w G_ij and y = 1, or on one line
    # x_ij = w and y = omega
    if b:
        beta, gamma = abs(b) ** 2, abs(c) ** 2
        v1 = (a / s1) * np.array([beta + omega * gamma, -w * b * np.conj(c)])
        v2 = np.array([omega * c, b])
        norm1, norm2 = np.hypot(*abs(v1)), np.hypot(*abs(v2))
        x12 = w * gamma * (omega / norm2) / norm2
        x21 = w * gamma * (omega / norm1) / norm1
        y = 1.0
    else:                     # both beams on the one line
        v1, v2 = np.array([a / s1, 0.0]), np.array([c, 0.0])
        norm1 = norm2 = 1.0
        x12, x21, y = w, w, omega
    z = x12 + x21 + y
    # m_i = sqrt(z pi_i) from amplitudes: far apart norms put the strong
    # user's f_i and pi_i below the float range, but not its beam
    m1 = math.hypot(math.sqrt(x12), math.sqrt(y) * e1)
    m2 = math.hypot(math.sqrt(x21), math.sqrt(y) * e2)
    # SINR_i = t pi_i (y + x_ji) / (pi_j x_ij + y f_i), which is t in exact
    # arithmetic, with both terms divided by m_i^2: r_i^2 = x_ij / m_i^2
    # and o_i^2 = y f_i / m_i^2
    r1, r2 = math.sqrt(x12) / m1, math.sqrt(x21) / m2
    o1, o2 = math.sqrt(y) * e1 / m1, math.sqrt(y) * e2 / m2
    gain1 = (y + x21) / (m2 * m2 * r1 * r1 + z * o1 * o1)
    gain2 = (y + x12) / (m1 * m1 * r2 * r2 + z * o2 * o2)
    root = math.sqrt(power / z)
    return MultiBeamformer(
        b1=(root * m1 * (q @ (v1 / norm1))).astype(complex),
        b2=(root * m2 * (q @ (v2 / norm2))).astype(complex),
        t_star=t, sinr1=float(t * gain1), sinr2=float(t * gain2),
        q1=ratio((power, e1, e1)), q2=ratio((power, e2, e2)))
