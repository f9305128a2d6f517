import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

from relayarq.channel import SystemConfig
from relayarq.errors import ContractViolationError
from relayarq.outage import (
    DiffExpPdfParams,
    arq_outage,
    cdf_diff_exp,
    outage_interference_n3,
    outage_single_user,
)

from _oracles import (NumericFailureError, cf_inversion_cdf,
                      cf_inversion_outage, characteristic_function,
                      diff_exp_params)


def make_cfg(**kw):
    base = dict(N=3, M=3, P=100.0, noise_var=1.0, var_direct=2.0,
                var_cross=1.0, var_relay=4.0, rate=2.0)
    base.update(kw)
    return SystemConfig(**base)


REF_PARAMS = DiffExpPdfParams(lam=0.5, mu=1.0 / 3.0, n=3)


# ---------------------------------------------------------------------------
# isolated cell
# ---------------------------------------------------------------------------

def test_single_user_n1_closed_form():
    # one antenna: ||h||^2 exponential, outage = 1 - exp(-noise*gamma/(P*var))
    cfg = make_cfg(N=1, P=1.0, noise_var=1.0, var_direct=1.0, rate=1.0)
    assert outage_single_user(cfg) == pytest.approx(0.6321205588285577, abs=1e-15)


def test_single_user_decreases_with_snr():
    vals = [outage_single_user(make_cfg(P=10.0 ** (s / 10.0))) for s in range(0, 50, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_single_user_zero_rate():
    assert outage_single_user(make_cfg(rate=0.0)) == 0.0


# ---------------------------------------------------------------------------
# signal-minus-interference law
# ---------------------------------------------------------------------------

def test_param_mapping():
    p = diff_exp_params(make_cfg(var_direct=2.0, var_cross=1.0, rate=2.0))
    assert p.lam == pytest.approx(0.5)
    assert p.mu == pytest.approx(1.0 / 3.0)
    assert p.n == 3


def test_param_validation():
    with pytest.raises(ContractViolationError):
        DiffExpPdfParams(lam=0.0, mu=1.0, n=3)
    with pytest.raises(ContractViolationError):
        DiffExpPdfParams(lam=1.0, mu=1.0, n=0)
    with pytest.raises(ContractViolationError):
        DiffExpPdfParams(lam=1.0, mu=1.0, n=2.5)


def test_cdf_symmetric_at_equal_rates():
    # lam = mu makes Z symmetric: half the mass sits below zero at every N
    for n in (1, 2, 3, 6, 40):
        for lam in (0.25, 1.0, 3.0):
            p = DiffExpPdfParams(lam=lam, mu=lam, n=n)
            assert cdf_diff_exp(0.0, p) == pytest.approx(0.5, abs=1e-14)
            for z in np.linspace(0.1, 8.0, 25) / lam:
                assert cdf_diff_exp(z, p) + cdf_diff_exp(-z, p) == pytest.approx(
                    1.0, abs=1e-13)


def test_cdf_continuous_at_zero():
    # the two sums of the law meet at c = 0
    eps = 1e-9
    for n in range(1, 7):
        p = DiffExpPdfParams(lam=REF_PARAMS.lam, mu=REF_PARAMS.mu, n=n)
        left, right = cdf_diff_exp(-eps, p), cdf_diff_exp(eps, p)
        assert left == pytest.approx(right, rel=1e-6)


def test_cdf_has_unit_mass():
    for n in range(1, 7):
        p = DiffExpPdfParams(lam=REF_PARAMS.lam, mu=REF_PARAMS.mu, n=n)
        assert cdf_diff_exp(-np.inf, p) == 0.0
        assert cdf_diff_exp(np.inf, p) == pytest.approx(1.0, abs=1e-15)
        assert cdf_diff_exp(-60.0 / p.mu, p) <= 1e-10
        assert cdf_diff_exp(60.0 / p.lam, p) >= 1.0 - 1e-10


def test_cdf_matches_numeric_integration():
    # Gil-Pelaez quadrature of the characteristic function; at n = 1 its
    # integrand decays too slowly for this tolerance, and the law there is
    # the elementary one checked below
    for n in range(2, 7):
        p = DiffExpPdfParams(lam=REF_PARAMS.lam, mu=REF_PARAMS.mu, n=n)
        for c in (-5.0, -1.0, -0.1, 0.0, 0.3, 2.0, 10.0):
            want = cf_inversion_cdf(c, p, tol=1e-11)
            assert cdf_diff_exp(c, p) == pytest.approx(want, abs=1e-10), (n, c)


def test_cdf_frozen_values():
    # lam=1/2, mu=1/3: Pr{Z<0} = a^3 (1 + 3b + 6b^2) with a=0.6, b=0.4
    assert cdf_diff_exp(0.0, REF_PARAMS) == pytest.approx(0.68256, abs=1e-12)
    assert cdf_diff_exp(2.0, REF_PARAMS) == pytest.approx(0.8055242122, abs=1e-9)


def test_cdf_is_monotone_and_proper():
    zs = np.linspace(-120.0, 120.0, 121)
    vals = [cdf_diff_exp(z, REF_PARAMS) for z in zs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1e-6 and vals[-1] > 1 - 1e-6


def test_cdf_n3_matches_explicit_expansion():
    # N = 3 written out: weights C(2+i, i) = 1, 3, 6 on b^i (or a^i), over
    # tail-rate ratios of 1e-8 .. 1e8
    rng = np.random.default_rng(29)
    for _ in range(400):
        lam = 10.0 ** rng.uniform(-4, 4)
        mu = lam * 10.0 ** rng.uniform(-8, 8)
        a, b = lam / (lam + mu), mu / (lam + mu)
        c = rng.uniform(-30, 30) / (lam if rng.random() < 0.5 else mu)
        if c <= 0:
            x = -c * mu
            want = a ** 3 * (gammaincc(3, x) + 3 * b * gammaincc(2, x)
                             + 6 * b * b * gammaincc(1, x))
        else:
            x = c * lam
            want = (a ** 3 * (1 + 3 * b + 6 * b * b)
                    + b ** 3 * (gammainc(3, x) + 3 * a * gammainc(2, x)
                                + 6 * a * a * gammainc(1, x)))
        got = cdf_diff_exp(c, DiffExpPdfParams(lam=lam, mu=mu, n=3))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_cdf_n1_is_the_two_sided_exponential():
    # one antenna: a e^(mu c) below zero, 1 - b e^(-lam c) above
    p = DiffExpPdfParams(lam=0.5, mu=1.0 / 3.0, n=1)
    a, b = 0.6, 0.4
    for c in (-7.0, -0.5, 0.0):
        assert cdf_diff_exp(c, p) == pytest.approx(a * math.exp(p.mu * c),
                                                   rel=1e-14)
    for c in (0.5, 7.0):
        assert cdf_diff_exp(c, p) == pytest.approx(1 - b * math.exp(-p.lam * c),
                                                   rel=1e-14)


def test_cdf_finite_at_large_orders():
    for n in (100, 1000, 5000):
        half = cdf_diff_exp(0.0, DiffExpPdfParams(lam=1.3, mu=1.3, n=n))
        assert half == pytest.approx(0.5, abs=1e-9)
        for ratio in (1e-8, 1.0, 1e8):
            p = DiffExpPdfParams(lam=1.0, mu=ratio, n=n)
            vals = [cdf_diff_exp(c, p) for c in (-1e4, -1.0, 0.0, 1.0, 1e4)]
            assert all(0.0 <= v <= 1.0 for v in vals), (n, ratio, vals)
            assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_closed_form_holds_for_other_orders():
    for n in (1, 2, 4, 6):
        cfg = make_cfg(N=n)
        assert outage_interference_n3(cfg) == pytest.approx(
            cf_inversion_outage(cfg), abs=1e-7)


# ---------------------------------------------------------------------------
# characteristic function route
# ---------------------------------------------------------------------------

def test_cf_at_zero_is_one():
    assert characteristic_function(0.0, REF_PARAMS) == pytest.approx(1.0)


def test_cf_matches_fourier_transform_of_cdf():
    # integrating by parts, phi(t) = 1 - jt (int_-inf^0 e^(jtz) F(z) dz
    #                                        + int_0^inf e^(jtz) (F(z) - 1) dz)
    def part(fn, lo, hi):
        return quad(fn, lo, hi, limit=600, epsabs=1e-13, epsrel=1e-13)[0]

    cdf = lambda z: cdf_diff_exp(z, REF_PARAMS)
    for t in (0.3, 1.7, -2.2):
        re = (part(lambda z: cdf(z) * np.cos(t * z), -np.inf, 0.0)
              + part(lambda z: (cdf(z) - 1.0) * np.cos(t * z), 0.0, np.inf))
        im = (part(lambda z: cdf(z) * np.sin(t * z), -np.inf, 0.0)
              + part(lambda z: (cdf(z) - 1.0) * np.sin(t * z), 0.0, np.inf))
        got = characteristic_function(t, REF_PARAMS)
        assert got == pytest.approx(1.0 - 1j * t * (re + 1j * im), abs=1e-9)


def test_cf_inversion_agrees_with_cdf():
    for c in (-2.0, 0.0, 1.0, 4.0):
        assert cf_inversion_cdf(c, REF_PARAMS) == pytest.approx(
            cdf_diff_exp(c, REF_PARAMS), abs=1e-7)


def test_cf_inversion_handles_other_orders():
    # n = 1: Z is the difference of two exponentials, CDF at 0 is lam/(lam+mu)
    p = DiffExpPdfParams(lam=0.5, mu=1.0 / 3.0, n=1)
    assert cf_inversion_cdf(0.0, p) == pytest.approx(0.6, abs=1e-7)


def test_interference_outage_pipeline():
    cfg = make_cfg(P=1000.0)
    got = outage_interference_n3(cfg)
    gamma = cfg.sinr_threshold
    c = cfg.N * cfg.noise_var * gamma / cfg.P
    assert got == pytest.approx(cdf_diff_exp(c, diff_exp_params(cfg)), abs=1e-15)
    assert cf_inversion_outage(cfg) == pytest.approx(got, abs=1e-7)


@pytest.mark.parametrize("rate", [25.0, 30.0])
def test_cf_inversion_fails_loudly_outside_its_domain(rate):
    # the rate ratio (2^R - 1) is far beyond 1e6: at R = 30 the quadrature
    # used to warn and return 0.5 where the closed form gives 1
    cfg = make_cfg(P=1e4, var_direct=1.0, var_cross=1.0, var_relay=1.0,
                   rate=rate)
    assert outage_interference_n3(cfg) == pytest.approx(1.0, abs=1e-12)
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        with pytest.raises(NumericFailureError):
            cf_inversion_outage(cfg)
    assert not leaked


def test_interference_outage_zero_rate_and_no_cross():
    assert outage_interference_n3(make_cfg(rate=0.0)) == 0.0
    cfg = make_cfg(var_cross=0.0)
    assert outage_interference_n3(cfg) == pytest.approx(outage_single_user(cfg), abs=1e-15)


def test_interference_floor_at_high_snr():
    # power cancels out of the SINR ratio, so outage saturates instead of
    # vanishing: the limit is Pr{Z < 0}
    lo = outage_interference_n3(make_cfg(P=1e8))
    hi = outage_interference_n3(make_cfg(P=1e12))
    assert lo == pytest.approx(hi, abs=1e-6)
    assert hi == pytest.approx(0.68256, abs=1e-4)


_positive = st.floats(1e-3, 1e3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 64), p=st.floats(1e-3, 1e8), rate=st.floats(0.0, 12.0),
       var_direct=_positive, var_cross=_positive,
       p_step=st.floats(1.0, 1e3), rate_step=st.floats(0.0, 4.0))
def test_interference_outage_properties(n, p, rate, var_direct, var_cross,
                                        p_step, rate_step):
    point = dict(N=n, P=p, rate=rate, var_direct=var_direct,
                 var_cross=var_cross)

    def outage(**kw):
        return outage_interference_n3(make_cfg(**{**point, **kw}))

    base = outage()
    assert 0.0 <= base <= 1.0
    # more power never hurts, a higher rate never helps (up to rounding)
    assert outage(P=p * p_step) <= base * (1.0 + 1e-12)
    assert outage(rate=rate + rate_step) >= base * (1.0 - 1e-12)
    # interference only ever adds outage, and without it nothing is added
    lone = outage_single_user(make_cfg(**{**point, "var_cross": 0.0}))
    assert outage(var_cross=0.0) == lone
    assert base >= lone * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# retransmission composition
# ---------------------------------------------------------------------------

def test_arq_outage_powers():
    assert arq_outage(0.3, 1) == pytest.approx(0.3)
    assert arq_outage(0.3, 3) == pytest.approx(0.027)
    assert arq_outage(0.0, 5) == 0.0
    assert arq_outage(1.0, 5) == 1.0


def test_arq_outage_validation():
    with pytest.raises(ContractViolationError):
        arq_outage(1.5, 2)
    with pytest.raises(ContractViolationError):
        arq_outage(0.5, 0)
