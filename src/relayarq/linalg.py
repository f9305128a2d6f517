"""Relay channels in the coordinates of their span; overflow-free ratios.

Both relay designs keep their beams in span{g1, g2}: a beam component off
that plane reaches neither user. One Householder QR of [g1 g2] gives the
plane an orthonormal basis Q = [Q0 Q1] and the channels coordinates in it,

    g1 = a Q0,    g2 = c Q0 + b Q1,

so |a|^2 = ||g1||^2 = A, |b|^2 = ||P_perp_g1 g2||^2 = B and
|c|^2 = |g1^H g2|^2 / ||g1||^2 = C, which the engine draws, over
var_relay, as Gamma variates. Householder QR keeps Q orthonormal when the
channels are parallel or zero, so neither design needs a threshold or a
fallback axis. ``span_coords`` is the one place a relay channel pair is
validated. ``ratio`` forms products of powers, variances and gains.
"""

import math

import numpy as np

from .errors import ContractViolationError


def span_coords(g1: np.ndarray, g2: np.ndarray):
    """``(Q, a, b, c)`` of the pair g1, g2, with Q complex (M, 2).

    This is where both relay designs validate their channel pair: each
    channel is flattened to a complex length-M vector, whatever its shape,
    and a pair of unequal lengths, or a channel holding NaN or inf, raises
    ContractViolationError. On a one-antenna relay the plane is a line:
    b = 0 and Q's second column is zero.
    """
    g1, g2 = (np.asarray(g, dtype=complex).reshape(-1) for g in (g1, g2))
    if len(g1) != len(g2):
        raise ContractViolationError("relay channels must have equal length")
    g = np.column_stack([g1, g2])
    if not np.isfinite(g).all():
        raise ContractViolationError("relay channels must be finite")
    q, r = np.linalg.qr(np.pad(g, ((0, max(0, 2 - len(g))), (0, 0))))
    return q[:len(g)], r[0, 0], r[1, 1], r[0, 1]


def ratio(num, den=()) -> float:
    """prod(num) / prod(den) of finite nonnegative floats, den nonzero,
    from mantissas (multiplied, then divided, in the order given) and
    exponents, so only the result can under- or overflow: to 0 or inf."""
    m, e = 1.0, 0
    for x in num:
        f, k = math.frexp(x)
        m, e = m * f, e + k
    for x in den:
        f, k = math.frexp(x)
        m, e = m / f, e - k
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf
