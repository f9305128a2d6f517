"""Relay beamforming when exactly one user needs a retransmission.

The relay retransmits to the failed user while the other cell's BS serves
its own user with a fresh message. The relay therefore steers all of its
power at the failed user's channel subject to radiating nothing toward the
protected user:

    maximize |b^H g_target|^2
    s.t.     b^H g_protect = 0,   ||b||^2 = Pr.

In the span coordinates of ``channel.span_coords(g_target, g_protect)``,
g_target = a Q0 and g_protect = c Q0 + b Q1. A beam Q w nulls g_protect
exactly when w is along (conj(b), -conj(c)), so the optimum is
sqrt(Pr) Q w with that unit w, and its value is Pr |a|^2 |w_0|^2 =
Pr A B / (B + C), the gain the Monte Carlo engine reads off its Gamma
draws. Only where g_protect = 0 is that w zero: nothing needs nulling, and
w = (1, 0) points the beam straight at the target. ``span_coords``
validates the channel pair; the relay needs at least two antennas, the
pair's length read by ``channel.whole``, and the budget is a real in
[MIN_POSITIVE, MAX_FINITE], read by ``channel.real`` as
``relay_multi.max_min_sinr`` reads its own. The test
suite checks both functions against the stacked eigenproblem over
vec(B), which allows any number of streams.
"""

import math

import numpy as np

from .channel import (MAX_FINITE, MIN_POSITIVE, ContractViolationError,
                      ratio, real, span_coords, whole)


def _zero_forcing(g_protect, g_target, power: float):
    """The span basis Q, the target's coordinate a, the unit w and the
    budget as a float."""
    q, a, b, c = span_coords(g_target, g_protect)
    whole(len(q), "relay antennas", low=2)
    power = real(power, "power", MIN_POSITIVE, MAX_FINITE)
    norm = np.hypot(abs(b), abs(c))
    w = np.array([np.conj(b), -np.conj(c)]) / norm if norm else \
        np.array([1.0, 0.0])
    return q, a, w, power


def optimal_gain(g_protect: np.ndarray, g_target: np.ndarray,
                 power: float) -> float:
    """Optimum power |a|^2 |w_0|^2 of the zero-forcing design, squared
    last so that no factor under- or overflows before the gain does. Where
    g_protect is zero the value is power ||g_target||^2. Raises
    ContractViolationError where the gain overflows a float, which is
    tested from mantissas and exponents, never by forming it."""
    _, a, w, power = _zero_forcing(g_protect, g_target, power)
    amp = float(abs(a * w[0]))
    if ratio((power, amp, amp)) == math.inf:
        raise ContractViolationError(
            "the zero-forcing gain overflows at this power")
    return float(abs(np.sqrt(power) * a * w[0]) ** 2)


def solve_single_user_beamformer(g_protect: np.ndarray, g_target: np.ndarray,
                                 power: float) -> np.ndarray:
    """Optimal zero-forcing beam b, a length-M vector with ||b||^2 = power.

    When g_target lies in span(g_protect) no beam reaches it, and b is a
    direction orthogonal to g_protect that carries the full power.
    """
    q, _, w, power = _zero_forcing(g_protect, g_target, power)
    return np.sqrt(power) * (q @ w)
