"""Closed-form outage probabilities for the two-cell downlink.

Without interference the own-cell link is a sum of N exponential powers, so
outage reduces to a chi-square CDF with 2N degrees of freedom. With one
interfering cell, per-antenna the decision variable is

    y_k = |h_i,i(k)|^2 - gamma |h_i,j(k)|^2,    gamma = 2^R - 1,

a difference of independent exponentials. Its density is two-sided
exponential with the positive tail governed by lam = 1/var_direct and the
negative tail by mu = 1/(gamma var_cross); outage is the CDF of the
N-antenna sum Z = sum_k y_k at c = N noise_var gamma / P.

For N = 3 the CDF is available in closed form (repeated integration by
parts of the residue polynomial). The test suite checks it against a
numeric Gil-Pelaez inversion of the characteristic function

    phi_Z(t) = (lam mu / (lam + mu))^N (1/(lam - jt) + 1/(mu + jt))^N,

a quadrature oracle that lives in ``tests/_oracles.py``, not here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .channel import SystemConfig
from .errors import (ContractViolationError, DegenerateInputError,
                     UnsupportedOrderError)


# ---------------------------------------------------------------------------
# interference-free outage
# ---------------------------------------------------------------------------

def outage_single_user(cfg: SystemConfig) -> float:
    """Outage probability of one isolated cell (no interference).

    Pr{ log2(1 + (P/N) ||h||^2 / noise_var) < R } with ||h||^2 a sum of N
    exponentials of mean var_direct; evaluates the regularized lower
    incomplete gamma at N noise_var gamma / (P var_direct).
    """
    if cfg.var_direct <= 0:
        raise DegenerateInputError("var_direct must be positive")
    x = cfg.N * cfg.noise_var * cfg.sinr_threshold / (cfg.P * cfg.var_direct)
    return float(gammainc(cfg.N, x))


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
        if self.n < 1:
            raise ContractViolationError("antenna count must be at least 1")


def diff_exp_params(cfg: SystemConfig) -> DiffExpPdfParams:
    """Map a system configuration onto the summand's tail rates."""
    if cfg.var_direct <= 0 or cfg.var_cross <= 0:
        raise DegenerateInputError("both channel variances must be positive here")
    gamma = cfg.sinr_threshold
    return DiffExpPdfParams(lam=1.0 / cfg.var_direct,
                            mu=1.0 / (gamma * cfg.var_cross),
                            n=cfg.N)


def _poly_coeffs(p: DiffExpPdfParams):
    lam, mu = p.lam, p.mu
    k = (lam * mu) ** 3 / (2.0 * (lam + mu) ** 3)
    beta = 6.0 / (lam + mu)
    d2 = 12.0 / (lam + mu) ** 2
    return k, beta, d2


def pdf_diff_exp_n3(z, p: DiffExpPdfParams) -> np.ndarray:
    """Density of Z = sum of three independent two-sided exponential summands.

    Piecewise polynomial-times-exponential; the two branches meet
    continuously at z = 0 with value 12 K / (lam + mu)^2.
    """
    if p.n != 3:
        raise UnsupportedOrderError("closed-form density implemented for n = 3 only")
    k, beta, d2 = _poly_coeffs(p)
    z = np.asarray(z, dtype=float)
    pos = k * np.exp(-p.lam * np.clip(z, 0, None)) * (z * z + beta * z + d2)
    neg = k * np.exp(p.mu * np.clip(z, None, 0)) * (z * z - beta * z + d2)
    out = np.where(z >= 0, pos, neg)
    return out if out.ndim else float(out)


def cdf_diff_exp_n3(c: float, p: DiffExpPdfParams) -> float:
    """Closed-form CDF of the three-antenna sum at threshold c.

    Exact piecewise integration of the density; the incomplete-gamma form
    keeps the polynomial-exponential integrals stable for extreme rates.
    """
    if p.n != 3:
        raise UnsupportedOrderError("closed-form CDF implemented for n = 3 only")
    k, beta, d2 = _poly_coeffs(p)
    lam, mu = p.lam, p.mu
    mass_neg = k * (2.0 / mu**3 + beta / mu**2 + d2 / mu)
    if c <= 0:
        x = -c * mu
        val = k * (2.0 / mu**3 * gammaincc(3, x)
                   + beta / mu**2 * gammaincc(2, x)
                   + d2 / mu * gammaincc(1, x))
    else:
        x = c * lam
        val = mass_neg + k * (2.0 / lam**3 * gammainc(3, x)
                              + beta / lam**2 * gammainc(2, x)
                              + d2 / lam * gammainc(1, x))
    return float(min(max(val, 0.0), 1.0))


def outage_interference_n3(cfg: SystemConfig) -> float:
    """Outage probability of one cell under cross-cell interference, N = 3.

    Pr{ log2(1 + (P/N)||h_ii||^2 / ((P/N)||h_ij||^2 + noise_var)) < R }.
    """
    if cfg.N != 3:
        raise UnsupportedOrderError("closed form implemented for N = 3 only")
    if cfg.sinr_threshold == 0.0:
        return 0.0
    if cfg.var_cross == 0:
        return outage_single_user(cfg)
    c = cfg.N * cfg.noise_var * cfg.sinr_threshold / cfg.P
    return cdf_diff_exp_n3(c, diff_exp_params(cfg))


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
