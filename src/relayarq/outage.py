"""Closed-form outage probabilities for the two-cell downlink, and the
unit system every verdict and law reads.

Every decision of the protocol is an SINR threshold test, and on unit
Gamma gains each test reads only a few dimensionless ratios of the
config: ``UnitSystem`` forms all of them, once, from mantissas and
exponents (``channel.ratio``), so only ratios enter and no partial product
over- or underflows. On unit Gamma(N, 1) gains own and cross, the direct
test SINR_i >= gamma = 2^R - 1 reads

    own - kappa cross >= floor,   kappa = gamma var_cross / var_direct,
                                  floor = gamma N noise_var / (var_direct P).

Both laws read that test. Without interference it is own >= floor, so
outage is the regularized lower incomplete gamma P(N, floor). With one
interfering cell it is Pr{X - kappa Y < floor} for independent X, Y ~
Gamma(N, 1) (``cdf_diff_exp``), a finite sum of N incomplete-gamma terms
for every N a config accepts (conditioning on one of the two and
expanding binomially). The floor is never negative, so the law is taken
on c >= 0 only, as one series of lower incomplete gammas P: ``gammainc``
is all this module takes from scipy. Below 0 the law is
1 - F_(1/kappa)(-c / kappa), X and Y swapped, which is how the test suite
checks it on the whole line against a numeric Gil-Pelaez inversion of the
characteristic function

    phi(t) = (1 - jt)^-N (1 + j kappa t)^-N,

a quadrature oracle that lives in ``tests/_oracles.py``, not here.
"""

import math
from collections import namedtuple

import numpy as np
from scipy.special import gammainc

from .channel import MAX_ANTENNAS, SystemConfig, ratio, real, whole


class UnitSystem(namedtuple("UnitSystem",
                            "gamma kappa floor kappa_r floor_r rho")):
    """The ratios of a ``SystemConfig`` that every verdict and law reads.

    On unit gains each SINR threshold test reads as a margin against a
    floor: the direct round as own - kappa cross >= floor (module
    docstring), the zero-forcing rescue as x - kappa_r y >= floor_r, with
    kappa_r = gamma var_cross / (N var_relay) and floor_r = gamma
    noise_var / (P var_relay), and the max-min rescue as t(u) >= gamma,
    with u = rho times the unit harmonic gain and rho = 2P var_relay /
    noise_var; gamma = 2^R - 1. A test whose signal variance is 0 passes
    nothing at gamma > 0, (kappa, floor) = (0, inf), and everything at
    gamma = 0, (0, 0). ``of`` is the one constructor, and an instance is
    frozen.
    """

    __slots__ = ()

    @classmethod
    def of(cls, cfg: SystemConfig) -> "UnitSystem":
        """The unit system of cfg, every ratio formed by ``channel.ratio``."""
        gamma = 2.0 ** cfg.rate - 1.0

        def test(var, kappa_den, floor_num):
            """(kappa, floor) of the test whose signal has variance var."""
            if not (gamma and var):
                return 0.0, math.inf if gamma else 0.0
            return (ratio((gamma, cfg.var_cross), (*kappa_den, var)),
                    ratio((gamma, *floor_num, cfg.noise_var), (cfg.P, var)))

        return cls(gamma, *test(cfg.var_direct, (), (cfg.N,)),
                   *test(cfg.var_relay, (cfg.N,), ()),
                   ratio((cfg.Pr_multi, cfg.var_relay), (cfg.noise_var,)))


# ---------------------------------------------------------------------------
# interference-free outage
# ---------------------------------------------------------------------------

def outage_single_user(cfg: SystemConfig) -> float:
    """Outage probability of one isolated cell (no interference).

    Pr{ log2(1 + (P/N) ||h||^2 / noise_var) < R } with ||h||^2 a sum of N
    exponentials of mean var_direct; evaluates the regularized lower
    incomplete gamma at the floor N noise_var gamma / (P var_direct). A
    zero own-cell channel carries nothing, so it is in outage at every
    positive rate.
    """
    return float(gammainc(cfg.N, UnitSystem.of(cfg).floor))


# ---------------------------------------------------------------------------
# interference-limited outage: a difference of two Gamma(N, 1) variables
# ---------------------------------------------------------------------------

def cdf_diff_exp(c: float, kappa: float, n: int) -> float:
    """Pr{X - kappa Y < c} for independent X, Y ~ Gamma(n, 1), n at most
    MAX_ANTENNAS, at c >= 0.

    This is the engine's margin own - kappa cross at the floor c, which
    ``UnitSystem`` never forms below 0: X has rate 1 and kappa Y rate
    mu = 1/kappa. With a = 1/(1+mu), b = mu/(1+mu) and w_i = C(n-1+i, i),
    i = 0..n-1, the law is the one series

        F(c) = sum_i w_i a^n b^i + sum_i w_i b^n a^i P(n-i, c),

    the mass below 0 plus the mass in [0, c), with P the regularized
    lower incomplete gamma; kappa = 0 puts no mass below 0, and
    kappa = inf all of it. c and kappa are reals in [0, inf], read by
    ``channel.real`` (``UnitSystem`` gives inf for either), and n a count
    in [1, MAX_ANTENNAS], read by ``channel.whole``; a negative or NaN c or
    kappa, an n past MAX_ANTENNAS, or any value that is not a number
    raises ContractViolationError before any term is formed.
    Every term is positive, and all n are summed as one array; the weights
    are formed in log space so no factor overflows at large n. The logs
    carry extended precision where the platform has it: a log weight of
    magnitude L rounded to double costs ~L ulps in its term, and L reaches
    ~1.4 n, or ~n |log a| for a tiny a.
    """
    kappa, c = real(kappa, "kappa", 0), real(c, "c", 0)
    n = whole(n, "n", high=MAX_ANTENNAS)
    if kappa == math.inf:   # interference beyond a float's range of the signal
        return 1.0
    mu = 1.0 / kappa if kappa else math.inf
    # an infinite mu or 1/mu (kappa 0, subnormal or near overflow) makes a
    # log -inf; a floor far below exp's range keeps the 0 * log of i = 0 at 0
    log_a = np.maximum(-np.log1p(np.longdouble(mu)), -2.0 ** 16)
    log_b = np.maximum(-np.log1p(np.longdouble(1.0) / mu), -2.0 ** 16)
    i = np.arange(n)
    # log w_i as a running sum of log(w_i / w_(i-1)) = log((n-1+i) / i)
    ratio = (n - 1 + i) / np.maximum(i, 1).astype(np.longdouble)
    ratio[0] = 1
    log_w = np.cumsum(np.log(ratio))
    mass_neg = np.exp(log_w + n * log_a + i * log_b)
    mass_pos = np.exp(log_w + n * log_b + i * log_a)
    total = np.sum(mass_neg + mass_pos * gammainc(n - i, c))
    return min(max(float(total), 0.0), 1.0)


def outage_interference_n3(cfg: SystemConfig) -> float:
    """Outage probability of one cell under cross-cell interference, at
    any N a config accepts.

    Pr{ log2(1 + (P/N)||h_ii||^2 / ((P/N)||h_ij||^2 + noise_var)) < R }.
    The name predates the general law; it holds for every antenna count.
    """
    units = UnitSystem.of(cfg)
    return cdf_diff_exp(units.floor, units.kappa, cfg.N)


# ---------------------------------------------------------------------------
# retransmission composition
# ---------------------------------------------------------------------------

def arq_outage(p_single: float, attempts: int) -> float:
    """Outage after an attempt budget with independent fading per attempt.

    Every attempt fails independently with probability p_single, so the
    message is lost iff all of them fail. p_single is a probability, a
    real in [0, 1] read by ``channel.real``, and the budget a count, read
    by ``channel.whole``.
    """
    return real(p_single, "p_single", 0, 1) ** whole(attempts, "attempts")
