import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relayarq.channel import (MAX_FINITE, MIN_POSITIVE, ContractViolationError,
                              SystemConfig, cn, draw_bs_channels, substream)
from relayarq.relay_single import optimal_gain, solve_single_user_beamformer

from _oracles import cn_vector, solve_single_user_beamformer_full


def beam_gain(b, g):
    """||B^H g||^2 for a beam vector or an M x streams matrix."""
    return float(np.linalg.norm(np.asarray(b).conj().T @ g) ** 2)


def beam_power(b):
    return float(np.sum(np.abs(b) ** 2))


def test_gain_matches_projection_formula():
    rng = np.random.default_rng(0)
    for m in (2, 3, 5):
        gp = cn_vector(rng, m, 4.0)
        gt = cn_vector(rng, m, 4.0)
        b = solve_single_user_beamformer(gp, gt, power=10.0)
        want = optimal_gain(gp, gt, 10.0)
        assert beam_gain(b, gt) == pytest.approx(want, rel=1e-12)


def test_power_and_null_constraints():
    rng = np.random.default_rng(1)
    gp = cn_vector(rng, 4, 1.0)
    gt = cn_vector(rng, 4, 1.0)
    b = solve_single_user_beamformer(gp, gt, power=7.0)
    assert b.shape == (4,)
    assert beam_power(b) == pytest.approx(7.0, rel=1e-12)
    assert abs(np.vdot(b, gp)) < 1e-12
    # a servable target: the beam is the projection, not the fallback
    assert beam_gain(b, gt) == pytest.approx(optimal_gain(gp, gt, 7.0),
                                             rel=1e-12)


def test_gain_linear_in_power():
    rng = np.random.default_rng(2)
    gp = cn_vector(rng, 3, 1.0)
    gt = cn_vector(rng, 3, 1.0)
    g1 = beam_gain(solve_single_user_beamformer(gp, gt, 1.0), gt)
    g5 = beam_gain(solve_single_user_beamformer(gp, gt, 5.0), gt)
    assert g5 == pytest.approx(5.0 * g1, rel=1e-12)


def test_full_eigen_path_agrees():
    # the stacked problem allows any number of streams; the one-beam
    # closed form must still reach its optimum
    rng = np.random.default_rng(3)
    for m, s in ((2, 1), (3, 2), (5, 3)):
        gp = cn_vector(rng, m, 2.0)
        gt = cn_vector(rng, m, 2.0)
        closed = solve_single_user_beamformer(gp, gt, 3.0)
        full = solve_single_user_beamformer_full(gp, gt, 3.0, n_streams=s)
        assert full.shape == (m, s)
        want = beam_gain(closed, gt)
        assert beam_gain(full, gt) == pytest.approx(want, rel=1e-10)
        assert np.linalg.norm(full.conj().T @ gp) < 1e-10
        assert beam_power(full) == pytest.approx(3.0, rel=1e-10)


def test_degenerate_parallel_channels():
    rng = np.random.default_rng(4)
    gp = cn_vector(rng, 3, 1.0)
    # g_target in span(g_protect): nothing can reach it
    assert optimal_gain(gp, 2.5 * gp, 4.0) < 1e-10
    b = solve_single_user_beamformer(gp, 2.5 * gp, power=4.0)
    assert beam_power(b) == pytest.approx(4.0, rel=1e-12)
    assert beam_gain(b, 2.5 * gp) < 1e-10
    assert abs(np.vdot(b, gp)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 8, 64])
def test_degenerate_fallback_is_a_full_power_null_beam(m):
    # the fallback projects the axis where |g_protect| is smallest; equal
    # magnitudes are its worst case, and g_protect along the first axis
    # leaves nothing of that axis to project
    rng = np.random.default_rng(m)
    for gp in (np.ones(m, dtype=complex), np.eye(m, dtype=complex)[0],
               cn_vector(rng, m, 1.0), 1e-150 * cn_vector(rng, m, 1.0)):
        b = solve_single_user_beamformer(gp, (2 - 1j) * gp, power=3.0)
        assert np.all(np.isfinite(b))
        assert beam_power(b) == pytest.approx(3.0, rel=1e-12)
        assert abs(np.vdot(b, gp)) <= 1e-12 * np.linalg.norm(gp)


def test_zero_protected_channel():
    # nothing to null: the beam points straight at the target, and with a
    # zero target too the fallback still spends the whole budget
    rng = np.random.default_rng(6)
    gt = cn_vector(rng, 4, 1.0)
    zero = np.zeros(4, dtype=complex)
    b = solve_single_user_beamformer(zero, gt, power=2.0)
    assert beam_power(b) == pytest.approx(2.0, rel=1e-12)
    assert optimal_gain(zero, gt, 2.0) == 2.0 * np.sum(np.abs(gt) ** 2)
    assert beam_gain(b, gt) == pytest.approx(optimal_gain(zero, gt, 2.0),
                                             rel=1e-12)
    b = solve_single_user_beamformer(zero, zero, power=2.0)
    assert beam_power(b) == pytest.approx(2.0, rel=1e-12)
    assert optimal_gain(zero, zero, 2.0) == 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from([2, 3, 8]), k=st.integers(-500, 500),
       snr_db=st.floats(0.0, 3000.0), parallel=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(m=3, k=-70, snr_db=10.0, parallel=False, seed=0)
def test_beam_at_every_scale(m, k, snr_db, parallel, seed):
    # channels scaled by 2^k and relay powers 0 to 3000 dB above 1: the
    # beam spends the budget, nulls the protected user to rounding and
    # reaches optimal_gain, with nothing over- or underflowing into a
    # warning short of a gain beyond a float's range
    rng = np.random.default_rng(seed)
    gp, gt = cn_vector(rng, m, 4.0), cn_vector(rng, m, 4.0)
    if parallel:
        gt = (0.5 - 1j) * gp
    gp, gt = math.ldexp(1.0, k) * gp, math.ldexp(1.0, k) * gt
    power = 10.0 ** (snr_db / 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = solve_single_user_beamformer(gp, gt, power)
        assert beam_power(b) == pytest.approx(power, rel=1e-12)
        assert abs(np.vdot(b, gp)) \
            <= 1e-12 * np.linalg.norm(gp) * np.linalg.norm(b)
        # power ||gt||^2 is the gain without a null
        norm_t = np.vdot(gt, gt).real
        if math.log2(power) + math.log2(norm_t) < 1020:
            full = power * norm_t
            assert beam_gain(b, gt) == pytest.approx(
                optimal_gain(gp, gt, power), rel=1e-12, abs=1e-24 * full)


def test_gain_beyond_the_float_range_raises():
    # with nothing to null the gain is power ||gt||^2 = power 2^1000: the
    # largest power of two that keeps it finite passes, twice it raises,
    # and neither warns
    gt = np.array([2.0 ** 500, 0.0], dtype=complex)
    zero = np.zeros(2, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_gain(zero, gt, 2.0 ** 22) == 2.0 ** 1022
        assert optimal_gain(zero, gt, 2.0 ** 23) == pytest.approx(
            2.0 ** 1023, rel=1e-15)
        with pytest.raises(ContractViolationError, match="overflows"):
            optimal_gain(zero, gt, 2.0 ** 24)
        with pytest.raises(ContractViolationError, match="overflows"):
            optimal_gain(zero, 1e300 * np.ones(2), 1e10)


def test_input_validation():
    with pytest.raises(ContractViolationError,
                       match="relay channels must have equal length"):
        solve_single_user_beamformer(np.ones(3), np.ones(4), 1.0)
    with pytest.raises(ContractViolationError,
                       match="relay antennas must be at least 2"):
        solve_single_user_beamformer(np.ones(1), np.ones(1), 1.0)


# each refused budget's message: ``channel.real`` with MIN_POSITIVE and
# MAX_FINITE as its bounds
BUDGET_REFUSALS = {
    math.nan: "must be a real number",
    math.inf: f"must be at most {MAX_FINITE!r}",
    -math.inf: f"must be at least {MIN_POSITIVE!r}",
    0.0: f"must be at least {MIN_POSITIVE!r}",
    -1.0: f"must be at least {MIN_POSITIVE!r}",
}


@pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_budget_must_be_positive_and_finite(power):
    # the max-min design's rule: a NaN budget once gave a NaN gain and beam,
    # and an inf one a RuntimeWarning
    rng = np.random.default_rng(6)
    gp, gt = cn_vector(rng, 3, 1.0), cn_vector(rng, 3, 1.0)
    for design in (optimal_gain, solve_single_user_beamformer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError) as info:
                design(gp, gt, power)
        assert str(info.value) == "power " + BUDGET_REFUSALS[power]


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_non_finite_channels_are_refused(bad):
    # a NaN or inf entry in either channel is bad input: both functions
    # once returned a NaN gain or beam here, with a RuntimeWarning
    for which in (0, 1):
        g = [np.ones(3, complex), np.ones(3, complex)]
        g[which][1] = bad
        for design in (optimal_gain, solve_single_user_beamformer):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractViolationError,
                                   match="relay channels must be finite"):
                    design(*g, 1.0)


def draw_round(cfg, seed):
    """One round of BS power gains (2, 2) and relay channels (2, M), at the
    config's variances."""
    rng = substream(seed, 0, 0)
    var = np.array([[cfg.var_direct, cfg.var_cross],
                    [cfg.var_cross, cfg.var_direct]])
    return (draw_bs_channels(cfg.N, rng, rounds=1)[0] * var,
            cn(rng, (2, cfg.M), cfg.var_relay))


def test_protected_user_sees_no_relay_power():
    cfg = SystemConfig(N=3, M=4, P=100.0, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=2.0)
    e, g = draw_round(cfg, 5)
    b = solve_single_user_beamformer(g[0], g[1], cfg.Pr_single)
    # zero leakage: the protected rate equals the relay-free rate
    sig = (cfg.P / cfg.N) * float(e[0, 0])
    want = np.log2(1.0 + sig / cfg.noise_var)
    leak = beam_gain(b, g[0])
    got = np.log2(1.0 + sig / (leak + cfg.noise_var))
    assert got == pytest.approx(want, rel=1e-12)


def test_target_rate_uses_beamformed_signal():
    cfg = SystemConfig(N=3, M=4, P=100.0, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=2.0)
    e, g = draw_round(cfg, 6)
    b = solve_single_user_beamformer(g[0], g[1], cfg.Pr_single)
    sig = beam_gain(b, g[1])
    interf = (cfg.P / cfg.N) * float(e[1, 0])
    want = np.log2(1.0 + sig / (interf + cfg.noise_var))
    # the relay-served user's rate is the projector gain over the active BS
    proj = optimal_gain(g[0], g[1], cfg.Pr_single)
    got = np.log2(1.0 + proj / (interf + cfg.noise_var))
    assert got == pytest.approx(want, rel=1e-12)
