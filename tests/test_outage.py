import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy.integrate import quad
from scipy.special import betainc, gammainc

from relayarq.channel import MAX_ANTENNAS, ContractViolationError, SystemConfig
from relayarq.outage import (
    UnitSystem,
    arq_outage,
    cdf_diff_exp,
    outage_interference_n3,
    outage_single_user,
)

from _oracles import (NumericFailureError, cdf_whole_line, cf_inversion_cdf,
                      cf_inversion_outage, characteristic_function,
                      diff_exp_args)


def make_cfg(**kw):
    base = dict(N=3, M=3, P=100.0, noise_var=1.0, var_direct=2.0,
                var_cross=1.0, var_relay=4.0, rate=2.0)
    base.update(kw)
    return SystemConfig(**base)


# the law at tail rates lam = 1/2 and mu = 1/3: F_(lam, mu)(c) is
# cdf_diff_exp(lam c, lam / mu, n), so kappa is 1.5 and c is halved
REF_KAPPA = 1.5


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
    c, kappa, n = diff_exp_args(make_cfg(var_direct=2.0, var_cross=1.0,
                                         rate=2.0))
    assert c == pytest.approx(0.045)
    assert kappa == pytest.approx(1.5)
    assert n == 3


def test_param_validation():
    for kappa, n in ((-1.0, 3), (math.nan, 3), (1.0, 0), (1.0, 2.5)):
        with pytest.raises(ContractViolationError):
            cdf_diff_exp(0.0, kappa, n)


def test_cdf_refuses_a_negative_or_nan_floor():
    # the law is taken on c >= 0, which holds every floor UnitSystem
    # forms; a negative floor, however small, or NaN raises instead of
    # returning a value, and 0, -0 and +inf are inside
    for c, message in ((-1e-300, "c must be at least 0"),
                       (-np.inf, "c must be at least 0"),
                       (math.nan, "c must be a real number")):
        with pytest.raises(ContractViolationError) as info:
            cdf_diff_exp(c, REF_KAPPA, 3)
        assert str(info.value) == message
    assert cdf_diff_exp(-0.0, REF_KAPPA, 3) == cdf_diff_exp(0.0, REF_KAPPA, 3)
    assert cdf_diff_exp(np.inf, REF_KAPPA, 3) == pytest.approx(1.0,
                                                                abs=1e-15)


_CLI_VARIANCE = st.one_of(st.just(0.0), st.floats(5e-324, 1e300))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5000), rate=st.floats(0.0, 1024.0, exclude_max=True),
       snr_db=st.floats(-3000.0, 3000.0), noise_var=st.floats(5e-324, 1e300),
       var_direct=_CLI_VARIANCE, var_cross=_CLI_VARIANCE)
@example(n=3, rate=2.0, snr_db=10.0, noise_var=1.0, var_direct=0.0,
         var_cross=0.0)
@example(n=5000, rate=1023.9, snr_db=-3000.0, noise_var=1e300,
         var_direct=5e-324, var_cross=1e300)
def test_cli_floors_lie_in_the_law_domain(n, rate, snr_db, noise_var,
                                          var_direct, var_cross):
    # every config the CLI accepts (N up to 5000, rate below 1024, SNR
    # within 3000 dB of the noise, variances 0 or 5e-324 .. 1e300) forms a
    # floor of at least 0, so no run reaches the law's refusal
    try:
        cfg = SystemConfig.at_snr(snr_db, N=n, M=3, noise_var=noise_var,
                                  var_direct=var_direct, var_cross=var_cross,
                                  var_relay=4.0, rate=rate)
    except ContractViolationError:
        reject()                          # the CLI exits 2 here
    floor = UnitSystem.of(cfg).floor
    assert floor >= 0.0 and not math.isnan(floor)
    assert 0.0 <= outage_interference_n3(cfg) <= 1.0


# a zero signal variance in the direct test, the relay's or both, at rate
# 0 and above: (var_direct, var_relay, rate, direct test, relay test), a
# test None where its variance is positive and it keeps its ratios
_OFF, _ON = (0.0, math.inf), (0.0, 0.0)
_ZERO_VARIANCE_TABLE = (
    (0.0, 4.0, 0.0, _ON, None),
    (0.0, 4.0, 2.0, _OFF, None),
    (2.0, 0.0, 0.0, None, _ON),
    (2.0, 0.0, 2.0, None, _OFF),
    (0.0, 0.0, 0.0, _ON, _ON),
    (0.0, 0.0, 2.0, _OFF, _OFF),
)


@pytest.mark.parametrize("var_direct, var_relay, rate, direct, relay",
                         _ZERO_VARIANCE_TABLE)
def test_unit_system_zero_variance_rule(var_direct, var_relay, rate, direct,
                                        relay):
    # a test whose signal variance is 0 passes nothing at a positive rate,
    # (kappa, floor) = (0, inf), and everything at rate 0, (0, 0), each a
    # +0.0 where it is 0; the other test and gamma keep their values, and
    # rho is 0 with the relay channel
    units = UnitSystem.of(make_cfg(var_direct=var_direct,
                                   var_relay=var_relay, rate=rate))
    live = UnitSystem.of(make_cfg(rate=rate))
    want = (live.gamma, *(direct or live[1:3]), *(relay or live[3:5]),
            live.rho if var_relay else 0.0)
    assert tuple(map(float.hex, units)) == tuple(map(float.hex, want))


def test_cdf_at_the_ends_of_kappa():
    # kappa = inf: interference beyond a float's range of the signal;
    # kappa = 0: none, so the law is the signal's own P(n, c)
    for n in (1, 3, 64):
        for c in (0.0, 2.5, np.inf):
            assert cdf_diff_exp(c, math.inf, n) == 1.0
            assert cdf_diff_exp(c, 0.0, n) == pytest.approx(gammainc(n, c),
                                                            rel=1e-14)


def test_cdf_symmetric_at_equal_rates():
    # kappa = 1 makes the law symmetric: half the mass sits below zero at
    # every N
    for n in (1, 2, 3, 6, 40):
        assert cdf_diff_exp(0.0, 1.0, n) == pytest.approx(0.5, abs=1e-14)


def test_cdf_continuous_at_zero():
    # the law and its swap meet at c = 0: F_kappa(0) + F_(1/kappa)(0) = 1
    eps = 1e-9
    for n in range(1, 7):
        left = cdf_whole_line(-eps, REF_KAPPA, n)
        right = cdf_diff_exp(eps, REF_KAPPA, n)
        assert left == pytest.approx(right, rel=1e-6)


def test_cdf_has_unit_mass():
    for n in range(1, 7):
        for kappa in (REF_KAPPA, 1.0 / REF_KAPPA):
            assert cdf_diff_exp(np.inf, kappa, n) == pytest.approx(
                1.0, abs=1e-15)
        assert cdf_whole_line(-60.0 * REF_KAPPA, REF_KAPPA, n) <= 1e-10
        assert cdf_diff_exp(60.0, REF_KAPPA, n) >= 1.0 - 1e-10


def test_cdf_matches_numeric_integration():
    # Gil-Pelaez quadrature of the characteristic function; at n = 1 its
    # integrand decays too slowly for this tolerance, and the law there is
    # the elementary one checked below
    for n in range(2, 7):
        for c in (-2.5, -0.5, -0.05, 0.0, 0.15, 1.0, 5.0):
            want = cf_inversion_cdf(c, REF_KAPPA, n, tol=1e-11)
            assert cdf_whole_line(c, REF_KAPPA, n) == pytest.approx(
                want, abs=1e-10), (n, c)


def test_cdf_frozen_values():
    # rates 1/2 and 1/3: Pr{Z<0} = a^3 (1 + 3b + 6b^2) with a=0.6, b=0.4
    assert cdf_diff_exp(0.0, REF_KAPPA, 3) == pytest.approx(0.68256,
                                                             abs=1e-12)
    assert cdf_diff_exp(1.0, REF_KAPPA, 3) == pytest.approx(0.8055242122,
                                                             abs=1e-9)


def test_cdf_is_monotone_and_proper():
    zs = np.linspace(-60.0, 60.0, 121)
    vals = [cdf_whole_line(z, REF_KAPPA, 3) for z in zs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1e-6 and vals[-1] > 1 - 1e-6


def test_cdf_n3_matches_explicit_expansion():
    # N = 3 written out: weights C(2+i, i) = 1, 3, 6 on b^i (or a^i), over
    # kappa of 1e-8 .. 1e8, the negative tail's rate mu = 1/kappa, and c
    # up to 30 on the scale 1 or kappa
    rng = np.random.default_rng(29)
    for _ in range(400):
        kappa = 10.0 ** rng.uniform(-8, 8)
        mu = 1.0 / kappa
        a, b = 1.0 / (1.0 + mu), mu / (1.0 + mu)
        c = rng.uniform(0, 30) * (1.0 if rng.random() < 0.5 else kappa)
        want = (a ** 3 * (1 + 3 * b + 6 * b * b)
                + b ** 3 * (gammainc(3, c) + 3 * a * gammainc(2, c)
                            + 6 * a * a * gammainc(1, c)))
        got = cdf_diff_exp(c, kappa, 3)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_cdf_n1_is_the_two_sided_exponential():
    # one antenna: a e^(c / kappa) below zero, 1 - b e^(-c) above, both
    # a at 0
    a, b = 0.6, 0.4
    assert cdf_diff_exp(0.0, REF_KAPPA, 1) == pytest.approx(a, rel=1e-14)
    for c in (0.5, 7.0):
        assert cdf_diff_exp(c, REF_KAPPA, 1) == pytest.approx(
            1 - b * math.exp(-c), rel=1e-14)


def test_cdf_finite_at_large_orders():
    for n in (100, 1000, 5000):
        half = cdf_diff_exp(0.0, 1.0, n)
        assert half == pytest.approx(0.5, abs=1e-9)
        for kappa in (1e8, 1.0, 1e-8):
            vals = [cdf_whole_line(c, kappa, n)
                    for c in (-1e4, -1.0, 0.0, 1.0, 1e4)]
            assert all(0.0 <= v <= 1.0 for v in vals), (n, kappa, vals)
            assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cdf_memory_is_bounded_at_large_orders():
    # the law sums its n terms as one array, so its ceiling bounds the
    # memory: under 1 MiB at the largest order a config accepts, where the
    # law at kappa = 1 is even, so F(0) = 1/2 exactly
    tracemalloc.start()
    try:
        got = cdf_diff_exp(0.0, 1.0, MAX_ANTENNAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
    assert got == pytest.approx(0.5, rel=0.0, abs=1e-13)
    # an order past the ceiling is refused before any term is formed
    for n in (MAX_ANTENNAS + 1, 10 ** 6):
        tracemalloc.start()
        try:
            with pytest.raises(ContractViolationError,
                               match=f"n must be at most {MAX_ANTENNAS}"):
                cdf_diff_exp(0.0, 1.0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16, (n, peak)


def test_closed_form_holds_for_other_orders():
    for n in (1, 2, 4, 6):
        cfg = make_cfg(N=n)
        assert outage_interference_n3(cfg) == pytest.approx(
            cf_inversion_outage(cfg), abs=1e-7)


# ---------------------------------------------------------------------------
# characteristic function route
# ---------------------------------------------------------------------------

def test_cf_at_zero_is_one():
    assert characteristic_function(0.0, REF_KAPPA, 3) == pytest.approx(1.0)


def test_cf_matches_fourier_transform_of_cdf():
    # integrating by parts, phi(t) = 1 - jt (int_-inf^0 e^(jtz) F(z) dz
    #                                        + int_0^inf e^(jtz) (F(z) - 1) dz)
    def part(fn, lo, hi):
        return quad(fn, lo, hi, limit=600, epsabs=1e-13, epsrel=1e-13)[0]

    cdf = lambda z: cdf_whole_line(z, REF_KAPPA, 3)
    for t in (0.3, 1.7, -2.2):
        re = (part(lambda z: cdf(z) * np.cos(t * z), -np.inf, 0.0)
              + part(lambda z: (cdf(z) - 1.0) * np.cos(t * z), 0.0, np.inf))
        im = (part(lambda z: cdf(z) * np.sin(t * z), -np.inf, 0.0)
              + part(lambda z: (cdf(z) - 1.0) * np.sin(t * z), 0.0, np.inf))
        got = characteristic_function(t, REF_KAPPA, 3)
        assert got == pytest.approx(1.0 - 1j * t * (re + 1j * im), abs=1e-9)


def test_cf_inversion_agrees_with_cdf():
    for c in (-1.0, 0.0, 0.5, 2.0):
        assert cf_inversion_cdf(c, REF_KAPPA, 3) == pytest.approx(
            cdf_whole_line(c, REF_KAPPA, 3), abs=1e-7)


def test_cf_inversion_handles_other_orders():
    # n = 1: the difference of two exponentials, CDF at 0 is
    # kappa/(1+kappa)
    assert cf_inversion_cdf(0.0, REF_KAPPA, 1) == pytest.approx(0.6, abs=1e-7)


def test_interference_outage_pipeline():
    cfg = make_cfg(P=1000.0)
    got = outage_interference_n3(cfg)
    assert got == pytest.approx(cdf_diff_exp(*diff_exp_args(cfg)), abs=1e-15)
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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, MAX_ANTENNAS])
def test_interference_floor_is_an_incomplete_beta(n):
    # as P grows the test reads X < kappa Y, and X / (X + Y) ~ Beta(N, N),
    # so the floor is I_{kappa/(1+kappa)}(N, N); at 300 dB the law's floor
    # term gamma N sigma^2 / (var_direct P) moves it by about 1e-30. Rates
    # 2, 4 and 6 give kappa >= 1.5, where at the ceiling both sides read
    # exactly 1; kappa near 1 (rate 2, var_cross = 2 kappa / 3) keeps the
    # floor inside (0, 1) at every order
    points = [dict(rate=rate) for rate in (2.0, 4.0, 6.0)]
    points += [dict(var_cross=2.0 * k / 3.0)
               for k in (0.97, 0.99, 1.0, 1.01, 1.03)]
    for point in points:
        cfg = make_cfg(N=n, P=1e30, **point)
        kappa = (2.0 ** cfg.rate - 1.0) * cfg.var_cross / cfg.var_direct
        assert outage_interference_n3(cfg) == pytest.approx(
            betainc(n, n, kappa / (1 + kappa)), rel=1e-13, abs=0.0), point


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


# the 64-antenna point at which forming the floor left to right overflowed
# where the noise is 1e300, and a point where both laws lie inside (0, 1)
_SCALE_POINTS = tuple(
    SystemConfig.at_snr(snr, N=n, M=3, noise_var=1.0, var_direct=var_direct,
                        var_cross=1.0, var_relay=4.0, rate=rate)
    for snr, n, var_direct, rate in ((72.3, 64, 64.0, 30.0),
                                     (10.0, 3, 2.0, 2.0)))


def _laws_match_at_scale(fields, k):
    for cfg in _SCALE_POINTS:
        scaled = dataclasses.replace(
            cfg, **{f: math.ldexp(getattr(cfg, f), k) for f in fields})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (outage_single_user(scaled), outage_interference_n3(scaled))
        want = (outage_single_user(cfg), outage_interference_n3(cfg))
        assert got == want, (cfg, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-1074, 1017))
# the ends of the valid range: the noise 2^k must be positive, and
# var_direct = 2^(k + 6) finite
@example(k=-1074)
@example(k=1017)
def test_laws_do_not_depend_on_the_channel_scale(k):
    # every channel variance and the noise times 2^k, at the same P: the
    # laws read only ratios, so neither may move, at subnormal scales too
    _laws_match_at_scale(("var_direct", "var_cross", "var_relay",
                          "noise_var"), k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-1020, 998))
# the ends of the range where P = 2^(k + 24.1) stays a normal float, so
# scaling it is exact, and the relay power 2P finite
@example(k=-1020)
@example(k=998)
def test_laws_do_not_depend_on_the_power_scale(k):
    # P and the noise times 2^k (the relay powers follow P): the same system
    _laws_match_at_scale(("P", "noise_var"), k)


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
    # the budget is a count: 2.5 once gave p^2.5, and nan gave nan
    for attempts in (0, 2.5, math.nan):
        with pytest.raises(ContractViolationError):
            arq_outage(0.5, attempts)
    assert arq_outage(0.5, 2.0) == arq_outage(0.5, 2) == 0.25
