import numpy as np
import pytest

from relayarq.channel import (
    CTX_DIRECT,
    CTX_RELAY,
    SystemConfig,
    draw_bs_channels,
    draw_relay_channels,
    substream,
)
from relayarq.errors import ContractViolationError


NAN, INF = float("nan"), float("inf")


def make_cfg(**kw):
    base = dict(N=3, M=3, P=100.0, noise_var=1.0, var_direct=2.0,
                var_cross=1.0, var_relay=4.0, rate=2.0)
    base.update(kw)
    return SystemConfig(**base)


@pytest.mark.parametrize("snr_db", [-30.0, 0.0, 7.5, 40.0, 200.0])
@pytest.mark.parametrize("noise_var", [1e-3, 1.0, 4.0])
def test_at_snr_sets_power_from_snr(snr_db, noise_var):
    cfg = SystemConfig.at_snr(snr_db, N=3, M=3, noise_var=noise_var,
                              var_direct=2.0, var_cross=1.0, var_relay=4.0,
                              rate=2.0)
    snr_back = 10.0 * np.log10(cfg.P / cfg.noise_var)
    assert snr_back == pytest.approx(snr_db, abs=1e-12)
    assert cfg.P == noise_var * 10.0 ** (snr_db / 10.0)
    assert cfg.noise_var == noise_var


def test_relay_power_defaults():
    cfg = make_cfg(P=50.0)
    assert cfg.Pr_single == 50.0
    assert cfg.Pr_multi == 100.0


def test_relay_power_overrides():
    cfg = make_cfg(Pr_single=7.0, Pr_multi=9.0)
    assert (cfg.Pr_single, cfg.Pr_multi) == (7.0, 9.0)


def test_sinr_threshold():
    assert make_cfg(rate=2.0).sinr_threshold == 3.0
    assert make_cfg(rate=0.0).sinr_threshold == 0.0


@pytest.mark.parametrize("kw", [
    dict(N=0), dict(M=0), dict(P=0.0), dict(noise_var=0.0),
    dict(var_direct=-1.0), dict(rate=-0.5), dict(retx=0),
    dict(Pr_single=-1.0),
    dict(P=NAN), dict(P=INF), dict(noise_var=NAN), dict(var_direct=INF),
    dict(var_cross=NAN), dict(var_relay=INF), dict(rate=NAN), dict(rate=INF),
    dict(Pr_single=NAN), dict(Pr_multi=INF), dict(Pr_multi=NAN),
])
def test_config_validation(kw):
    with pytest.raises(ContractViolationError):
        make_cfg(**kw)


def test_substream_reproducible():
    a = substream(42, CTX_DIRECT, 7).standard_normal(5)
    b = substream(42, CTX_DIRECT, 7).standard_normal(5)
    assert np.array_equal(a, b)


def test_substream_separation():
    base = substream(42, CTX_DIRECT, 7).standard_normal(5)
    assert not np.array_equal(base, substream(42, CTX_DIRECT, 8).standard_normal(5))
    assert not np.array_equal(base, substream(42, CTX_RELAY, 7).standard_normal(5))
    assert not np.array_equal(base, substream(43, CTX_DIRECT, 7).standard_normal(5))


def test_bs_channel_shapes():
    cfg = make_cfg(N=4)
    rng = substream(0, CTX_DIRECT, 0)
    assert draw_bs_channels(cfg, rng, rounds=1).shape == (1, 2, 2, 4)
    assert draw_bs_channels(cfg, rng, rounds=5).shape == (5, 2, 2, 4)


def test_bs_channel_variance_structure():
    cfg = make_cfg(N=2, var_direct=2.0, var_cross=0.5)
    h = draw_bs_channels(cfg, substream(1, CTX_DIRECT, 0), rounds=40000)
    e = np.mean(np.abs(h) ** 2, axis=(0, 3))
    assert np.allclose(e[[0, 1], [0, 1]], 2.0, rtol=0.05)
    assert np.allclose(e[[0, 1], [1, 0]], 0.5, rtol=0.05)


def test_relay_channel_variance():
    cfg = make_cfg(M=4, var_relay=3.0)
    rng = substream(2, CTX_RELAY, 0)
    g = np.concatenate([draw_relay_channels(cfg, rng, rounds=1)
                        for _ in range(20000)])
    assert g.shape == (20000, 2, 4)
    assert abs(np.mean(np.abs(g) ** 2) - 3.0) < 0.05
    # circular symmetry: real and imaginary parts carry half the power each
    assert abs(np.mean(g.real ** 2) - 1.5) < 0.05


def test_relay_channel_shapes():
    cfg = make_cfg(M=5)
    rng = substream(3, CTX_RELAY, 1)
    assert draw_relay_channels(cfg, rng, rounds=1).shape == (1, 2, 5)
    assert draw_relay_channels(cfg, rng, rounds=7).shape == (7, 2, 5)
