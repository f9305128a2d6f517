import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from relayarq.channel import SystemConfig
from relayarq.errors import (ContractViolationError, NumericFailureError,
                             UnsupportedOrderError)
from relayarq.outage import (
    DiffExpPdfParams,
    arq_outage,
    cdf_diff_exp_n3,
    diff_exp_params,
    outage_interference_n3,
    outage_single_user,
    pdf_diff_exp_n3,
)

from _oracles import (cf_inversion_cdf, cf_inversion_outage,
                      characteristic_function, numeric_cdf_from_pdf)


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
# signal-minus-interference density
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


def test_pdf_value_at_origin_symmetric_case():
    # lam = mu makes the density even; its peak value collapses to 3 lam / 16
    for lam in (0.25, 1.0, 3.0):
        p = DiffExpPdfParams(lam=lam, mu=lam, n=3)
        assert pdf_diff_exp_n3(0.0, p) == pytest.approx(3.0 * lam / 16.0, rel=1e-14)
        z = np.linspace(0.1, 8.0, 25)
        assert np.allclose(pdf_diff_exp_n3(z, p), pdf_diff_exp_n3(-z, p), rtol=1e-13)


def test_pdf_continuous_at_zero():
    eps = 1e-9
    left = pdf_diff_exp_n3(-eps, REF_PARAMS)
    right = pdf_diff_exp_n3(eps, REF_PARAMS)
    assert left == pytest.approx(right, rel=1e-6)


def test_pdf_integrates_to_one():
    val, _ = quad(lambda z: pdf_diff_exp_n3(z, REF_PARAMS), -np.inf, 0.0, limit=400)
    pos, _ = quad(lambda z: pdf_diff_exp_n3(z, REF_PARAMS), 0.0, np.inf, limit=400)
    assert val + pos == pytest.approx(1.0, abs=1e-10)


def test_cdf_matches_numeric_integration():
    for c in (-5.0, -1.0, -0.1, 0.0, 0.3, 2.0, 10.0):
        want = numeric_cdf_from_pdf(lambda z: pdf_diff_exp_n3(z, REF_PARAMS), c)
        assert cdf_diff_exp_n3(c, REF_PARAMS) == pytest.approx(want, abs=1e-10)


def test_cdf_frozen_values():
    # lam=1/2, mu=1/3: Pr{Z<0} = a^3 (1 + 3b + 6b^2) with a=0.6, b=0.4
    assert cdf_diff_exp_n3(0.0, REF_PARAMS) == pytest.approx(0.68256, abs=1e-12)
    assert cdf_diff_exp_n3(2.0, REF_PARAMS) == pytest.approx(0.8055242122, abs=1e-9)


def test_cdf_is_monotone_and_proper():
    zs = np.linspace(-120.0, 120.0, 121)
    vals = [cdf_diff_exp_n3(z, REF_PARAMS) for z in zs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1e-6 and vals[-1] > 1 - 1e-6


def test_closed_forms_reject_other_orders():
    p = DiffExpPdfParams(lam=1.0, mu=1.0, n=2)
    with pytest.raises(UnsupportedOrderError):
        pdf_diff_exp_n3(0.0, p)
    with pytest.raises(UnsupportedOrderError):
        cdf_diff_exp_n3(0.0, p)
    with pytest.raises(UnsupportedOrderError):
        outage_interference_n3(make_cfg(N=2))


# ---------------------------------------------------------------------------
# characteristic function route
# ---------------------------------------------------------------------------

def test_cf_at_zero_is_one():
    assert characteristic_function(0.0, REF_PARAMS) == pytest.approx(1.0)


def test_cf_matches_fourier_transform_of_pdf():
    for t in (0.3, 1.7, -2.2):
        re, _ = quad(lambda z: pdf_diff_exp_n3(z, REF_PARAMS) * np.cos(t * z),
                     -np.inf, np.inf, limit=600)
        im, _ = quad(lambda z: pdf_diff_exp_n3(z, REF_PARAMS) * np.sin(t * z),
                     -np.inf, np.inf, limit=600)
        got = characteristic_function(t, REF_PARAMS)
        assert got == pytest.approx(re + 1j * im, abs=1e-9)


def test_cf_inversion_agrees_with_cdf():
    for c in (-2.0, 0.0, 1.0, 4.0):
        assert cf_inversion_cdf(c, REF_PARAMS) == pytest.approx(
            cdf_diff_exp_n3(c, REF_PARAMS), abs=1e-7)


def test_cf_inversion_handles_other_orders():
    # n = 1: Z is the difference of two exponentials, CDF at 0 is lam/(lam+mu)
    p = DiffExpPdfParams(lam=0.5, mu=1.0 / 3.0, n=1)
    assert cf_inversion_cdf(0.0, p) == pytest.approx(0.6, abs=1e-7)


def test_interference_outage_pipeline():
    cfg = make_cfg(P=1000.0)
    got = outage_interference_n3(cfg)
    gamma = cfg.sinr_threshold
    c = cfg.N * cfg.noise_var * gamma / cfg.P
    assert got == pytest.approx(cdf_diff_exp_n3(c, diff_exp_params(cfg)), abs=1e-15)
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
