import numpy as np
import pytest

from relayarq.channel import (SystemConfig, draw_bs_channels,
                              draw_relay_channels, substream)
from relayarq.errors import DegenerateInputError, DimensionError
from relayarq.relay_single import (
    beamform_gain,
    optimal_gain,
    solve_single_user_beamformer,
)

from _oracles import cn_vector, solve_single_user_beamformer_full


def test_gain_matches_projection_formula():
    rng = np.random.default_rng(0)
    for m in (2, 3, 5):
        gp = cn_vector(rng, m, 4.0)
        gt = cn_vector(rng, m, 4.0)
        bf = solve_single_user_beamformer(gp, gt, power=10.0)
        want = optimal_gain(gp, gt, 10.0)
        assert beamform_gain(bf.matrix, gt) == pytest.approx(want, rel=1e-12)


def test_power_and_null_constraints():
    rng = np.random.default_rng(1)
    gp = cn_vector(rng, 4, 1.0)
    gt = cn_vector(rng, 4, 1.0)
    bf = solve_single_user_beamformer(gp, gt, power=7.0)
    assert bf.matrix.shape == (4, 1)
    assert bf.power == pytest.approx(7.0, rel=1e-12)
    assert bf.null_residual < 1e-12
    assert not bf.degenerate


def test_gain_linear_in_power():
    rng = np.random.default_rng(2)
    gp = cn_vector(rng, 3, 1.0)
    gt = cn_vector(rng, 3, 1.0)
    g1 = beamform_gain(solve_single_user_beamformer(gp, gt, 1.0).matrix, gt)
    g5 = beamform_gain(solve_single_user_beamformer(gp, gt, 5.0).matrix, gt)
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
        want = beamform_gain(closed.matrix, gt)
        assert beamform_gain(full.matrix, gt) == pytest.approx(want, rel=1e-10)
        assert full.null_residual < 1e-10
        assert full.power == pytest.approx(3.0, rel=1e-10)


def test_degenerate_parallel_channels():
    rng = np.random.default_rng(4)
    gp = cn_vector(rng, 3, 1.0)
    bf = solve_single_user_beamformer(gp, 2.5 * gp, power=4.0)
    assert bf.degenerate
    assert bf.power == pytest.approx(4.0, rel=1e-12)
    assert beamform_gain(bf.matrix, 2.5 * gp) < 1e-10
    assert bf.null_residual < 1e-12


def test_input_validation():
    with pytest.raises(DimensionError):
        solve_single_user_beamformer(np.ones(3), np.ones(4), 1.0)
    with pytest.raises(DegenerateInputError):
        solve_single_user_beamformer(np.ones(1), np.ones(1), 1.0)
    with pytest.raises(DegenerateInputError):
        solve_single_user_beamformer(np.ones(3), np.ones(3), 0.0)
    with pytest.raises(DegenerateInputError):
        optimal_gain(np.zeros(3), np.ones(3), 1.0)


def draw_round(cfg, seed):
    """One round of BS channels (2, 2, N) and relay channels (2, M)."""
    rng = substream(seed, 0, 0)
    return draw_bs_channels(cfg, rng), draw_relay_channels(cfg, rng)


def test_protected_user_sees_no_relay_power():
    cfg = SystemConfig(N=3, M=4, P=100.0, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=2.0)
    h, g = draw_round(cfg, 5)
    bf = solve_single_user_beamformer(g[0], g[1], cfg.Pr_single)
    # zero leakage: the protected rate equals the relay-free rate
    h_own = h[0, 0]
    sig = (cfg.P / cfg.N) * float(np.vdot(h_own, h_own).real)
    want = np.log2(1.0 + sig / cfg.noise_var)
    leak = beamform_gain(bf.matrix, g[0])
    got = np.log2(1.0 + sig / (leak + cfg.noise_var))
    assert got == pytest.approx(want, rel=1e-12)


def test_target_rate_uses_beamformed_signal():
    cfg = SystemConfig(N=3, M=4, P=100.0, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=2.0)
    h, g = draw_round(cfg, 6)
    bf = solve_single_user_beamformer(g[0], g[1], cfg.Pr_single)
    sig = beamform_gain(bf.matrix, g[1])
    interf = (cfg.P / cfg.N) * float(np.vdot(h[1, 0], h[1, 0]).real)
    want = np.log2(1.0 + sig / (interf + cfg.noise_var))
    # the relay-served user's rate is the projector gain over the active BS
    proj = optimal_gain(g[0], g[1], cfg.Pr_single)
    got = np.log2(1.0 + proj / (interf + cfg.noise_var))
    assert got == pytest.approx(want, rel=1e-12)
