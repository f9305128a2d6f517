import numpy as np
import pytest

from relayarq.channel import (SystemConfig, draw_bs_channels,
                              draw_relay_channels, substream)
from relayarq.errors import DegenerateInputError, DimensionError
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


def test_optimal_gain_batched():
    # one row of a batch gives the same bits as that row alone
    rng = np.random.default_rng(8)
    gp = cn_vector(rng, 5 * 3 * 4, 1.0).reshape(5, 3, 4)
    gt = cn_vector(rng, 5 * 3 * 4, 1.0).reshape(5, 3, 4)
    gp[2, 1] = 0.0
    got = optimal_gain(gp, gt, 6.0)
    assert got.shape == (5, 3)
    for idx in np.ndindex(5, 3):
        assert got[idx] == optimal_gain(gp[idx], gt[idx], 6.0)
    assert got[2, 1] == 6.0 * np.sum(np.abs(gt[2, 1]) ** 2)


def test_input_validation():
    with pytest.raises(DimensionError):
        solve_single_user_beamformer(np.ones(3), np.ones(4), 1.0)
    with pytest.raises(DegenerateInputError):
        solve_single_user_beamformer(np.ones(1), np.ones(1), 1.0)
    with pytest.raises(DegenerateInputError):
        solve_single_user_beamformer(np.ones(3), np.ones(3), 0.0)


def draw_round(cfg, seed):
    """One round of BS channels (2, 2, N) and relay channels (2, M)."""
    rng = substream(seed, 0, 0)
    return (draw_bs_channels(cfg, rng, rounds=1)[0],
            draw_relay_channels(cfg, rng, rounds=1)[0])


def test_protected_user_sees_no_relay_power():
    cfg = SystemConfig(N=3, M=4, P=100.0, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=2.0)
    h, g = draw_round(cfg, 5)
    b = solve_single_user_beamformer(g[0], g[1], cfg.Pr_single)
    # zero leakage: the protected rate equals the relay-free rate
    h_own = h[0, 0]
    sig = (cfg.P / cfg.N) * float(np.vdot(h_own, h_own).real)
    want = np.log2(1.0 + sig / cfg.noise_var)
    leak = beam_gain(b, g[0])
    got = np.log2(1.0 + sig / (leak + cfg.noise_var))
    assert got == pytest.approx(want, rel=1e-12)


def test_target_rate_uses_beamformed_signal():
    cfg = SystemConfig(N=3, M=4, P=100.0, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=2.0)
    h, g = draw_round(cfg, 6)
    b = solve_single_user_beamformer(g[0], g[1], cfg.Pr_single)
    sig = beam_gain(b, g[1])
    interf = (cfg.P / cfg.N) * float(np.vdot(h[1, 0], h[1, 0]).real)
    want = np.log2(1.0 + sig / (interf + cfg.noise_var))
    # the relay-served user's rate is the projector gain over the active BS
    proj = optimal_gain(g[0], g[1], cfg.Pr_single)
    got = np.log2(1.0 + proj / (interf + cfg.noise_var))
    assert got == pytest.approx(want, rel=1e-12)
