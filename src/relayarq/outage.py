"""Closed-form outage probabilities for the two-cell downlink.

Without interference the own-cell link is a sum of N exponential powers, so
outage reduces to a chi-square CDF with 2N degrees of freedom. With one
interfering cell, per-antenna the decision variable is

    y_k = |h_i,i(k)|^2 - gamma |h_i,j(k)|^2,    gamma = 2^R - 1,

a difference of independent exponentials. Its density is two-sided
exponential with the positive tail governed by lam = 1/var_direct and the
negative tail by mu = 1/(gamma var_cross); outage is the CDF of the
N-antenna sum Z = sum_k y_k at c = N noise_var gamma / P.
``outage_interference_n3`` takes that CDF in units of var_direct, rates
1 and var_direct / (gamma var_cross) at c / var_direct, so only ratios
enter and no rate over- or underflows on its own.

The N-antenna sum is a difference of two Gamma(N) variables, and its CDF
is a finite sum of incomplete-gamma terms for every N (conditioning on one
of the two and expanding binomially). The test suite checks it against a
numeric Gil-Pelaez inversion of the characteristic function

    phi_Z(t) = (lam mu / (lam + mu))^N (1/(lam - jt) + 1/(mu + jt))^N,

a quadrature oracle that lives in ``tests/_oracles.py``, not here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .channel import SystemConfig
from .errors import ContractViolationError


# ---------------------------------------------------------------------------
# interference-free outage
# ---------------------------------------------------------------------------

def outage_single_user(cfg: SystemConfig) -> float:
    """Outage probability of one isolated cell (no interference).

    Pr{ log2(1 + (P/N) ||h||^2 / noise_var) < R } with ||h||^2 a sum of N
    exponentials of mean var_direct; evaluates the regularized lower
    incomplete gamma at N noise_var gamma / (P var_direct). A zero own-cell
    channel carries nothing, so it is in outage at every positive rate.
    """
    gamma = cfg.sinr_threshold
    if not (gamma and cfg.var_direct):
        return float(gamma > 0)
    # divided in turn: P var_direct underflows where both are tiny
    return float(gammainc(cfg.N, cfg.N * cfg.noise_var * gamma / cfg.P
                          / cfg.var_direct))


# ---------------------------------------------------------------------------
# interference-limited outage: two-sided exponential machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffExpPdfParams:
    """Rates of the signal-minus-interference summand.

    lam  rate of the positive tail, 1/var_direct
    mu   rate of the negative tail, 1/(gamma var_cross)
    n    number of summed antennas N
    """

    lam: float
    mu: float
    n: int

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ContractViolationError("rates must be positive")
        if self.n < 1 or self.n != int(self.n):
            raise ContractViolationError("antenna count must be an integer >= 1")


def cdf_diff_exp(c: float, p: DiffExpPdfParams) -> float:
    """Closed-form CDF Pr{Z < c} of the N-antenna sum, for any N.

    Z is Gamma(N, lam) - Gamma(N, mu). With a = lam/(lam+mu),
    b = mu/(lam+mu) and w_i = C(N-1+i, i), i = 0..N-1,

        c <  0:  F(c) = sum_i w_i a^N b^i Q(N-i, mu |c|)
        c >= 0:  F(c) = sum_i w_i a^N b^i
                        + sum_i w_i b^N a^i P(N-i, lam c),

    with P, Q the regularized incomplete gammas. Every term is positive;
    the weights are formed in log space so no factor overflows at large N.
    The logs carry extended precision where the platform has it: a log
    weight of magnitude L rounded to double costs ~L ulps in its term, and
    L reaches ~1.4 N, or ~N |log a| for a tiny a.
    """
    n = p.n
    i = np.arange(n)
    # log w_i as a running sum of log(w_i / w_(i-1)) = log((N-1+i) / i)
    ratio = (n - 1 + i) / np.maximum(i, 1).astype(np.longdouble)
    ratio[0] = 1
    log_w = np.cumsum(np.log(ratio))
    # a rate of inf (a variance below the normal range) makes a log -inf;
    # a floor far below exp's range keeps the 0 * log of i = 0 at 0
    log_a = np.maximum(-np.log1p(np.longdouble(p.mu) / p.lam), -2.0 ** 16)
    log_b = np.maximum(-np.log1p(np.longdouble(p.lam) / p.mu), -2.0 ** 16)
    mass_neg = np.exp(log_w + n * log_a + i * log_b)
    if c < 0:
        terms = mass_neg * gammaincc(n - i, -c * p.mu)
    else:
        mass_pos = np.exp(log_w + n * log_b + i * log_a)
        terms = mass_neg + mass_pos * gammainc(n - i, c * p.lam)
    return min(max(float(np.sum(terms)), 0.0), 1.0)


def outage_interference_n3(cfg: SystemConfig) -> float:
    """Outage probability of one cell under cross-cell interference, any N.

    Pr{ log2(1 + (P/N)||h_ii||^2 / ((P/N)||h_ij||^2 + noise_var)) < R }.
    The name predates the general law; it holds for every antenna count.
    """
    if cfg.sinr_threshold == 0.0:
        return 0.0
    if cfg.var_cross == 0 or cfg.var_direct == 0:
        return outage_single_user(cfg)
    # in units of var_direct: lam = 1 and mu = var_direct / (gamma
    # var_cross), so neither rate over- or underflows on its own
    gamma = cfg.sinr_threshold
    ratio = cfg.var_direct / gamma / cfg.var_cross
    if not ratio:     # interference beyond a float's range of the signal
        return 1.0
    c = cfg.N * cfg.noise_var * gamma / cfg.P / cfg.var_direct
    return cdf_diff_exp(c, DiffExpPdfParams(lam=1.0, mu=ratio, n=cfg.N))


# ---------------------------------------------------------------------------
# retransmission composition
# ---------------------------------------------------------------------------

def arq_outage(p_single: float, attempts: int) -> float:
    """Outage after an attempt budget with independent fading per attempt.

    Every attempt fails independently with probability p_single, so the
    message is lost iff all of them fail.
    """
    if not 0.0 <= p_single <= 1.0:
        raise ContractViolationError("per-attempt outage must lie in [0, 1]")
    if attempts < 1:
        raise ContractViolationError("attempt budget must be at least 1")
    return float(p_single ** attempts)
