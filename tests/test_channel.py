import numpy as np
import pytest
from scipy import stats

from relayarq.channel import (
    CTX_DIRECT,
    CTX_RELAY,
    STATS,
    SystemConfig,
    _A,
    cn,
    draw_bs_channels,
    draw_relay_stats,
    substream,
)
from relayarq.errors import ContractViolationError

from _oracles import relay_gains


NAN, INF = float("nan"), float("inf")


def make_cfg(**kw):
    base = dict(N=3, M=3, P=100.0, noise_var=1.0, var_direct=2.0,
                var_cross=1.0, var_relay=4.0, rate=2.0)
    base.update(kw)
    return SystemConfig(**base)


def relay_stats(cfg, rng, rounds):
    """The statistics of ``rounds`` fresh relay trials, (rounds, STATS)."""
    return draw_relay_stats(cfg, rng, np.empty((rounds, STATS)))


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


def test_at_snr_rejects_overflowing_power():
    with pytest.raises(ContractViolationError, match="4000"):
        SystemConfig.at_snr(4000.0, N=3, M=3, noise_var=1.0, var_direct=2.0,
                            var_cross=1.0, var_relay=4.0, rate=2.0)


def test_default_multiuser_relay_power_must_not_overflow():
    # P is finite but 2P is not: the message names the relay power, not
    # "finite numbers"
    with pytest.raises(ContractViolationError, match="relay power 2P"):
        make_cfg(P=1e308)
    with pytest.raises(ContractViolationError, match="relay power 2P"):
        SystemConfig.at_snr(3080.0, N=3, M=3, noise_var=1.0, var_direct=2.0,
                            var_cross=1.0, var_relay=4.0, rate=2.0)
    assert make_cfg(P=1e308, Pr_multi=1.0).Pr_multi == 1.0


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
    dict(rate=1024.0),
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
    # the key fills the seed and the counter's two middle words, so the
    # single-draw commands' key (seed, 0, 0) is Philox's plain stream
    plain = np.random.Generator(np.random.Philox(key=42))
    assert np.array_equal(substream(42, 0, 0).standard_normal(5),
                          plain.standard_normal(5))


def test_bs_channel_shapes():
    cfg = make_cfg(N=4)
    rng = substream(0, CTX_DIRECT, 0)
    for rounds in (1, 5):
        e = draw_bs_channels(cfg, rng, rounds=rounds)
        assert e.shape == (rounds, 2, 2) and e.dtype == np.float64


def test_bs_channel_variance_structure():
    # a unit gain sums N entries of variance 1, so its mean is N, on every
    # link whatever the config's variances
    cfg = make_cfg(N=2, var_direct=2.0, var_cross=0.5)
    e = draw_bs_channels(cfg, substream(1, CTX_DIRECT, 0), rounds=40000)
    assert np.allclose(e.mean(axis=0), 2.0, rtol=0.05)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_bs_gains_follow_gamma_law(n):
    # ||h||^2 of n CN(0, var) entries is var Gamma(n, 1): each link's unit
    # gain passes a KS test against Gamma(n, 1), and so does each of the
    # 6 BS gains of a relay trial's statistics
    cfg = make_cfg(N=n, var_direct=2.0, var_cross=0.5)
    e = draw_bs_channels(cfg, substream(4, CTX_DIRECT, n), rounds=5000)
    for i, j in np.ndindex(2, 2):
        assert stats.kstest(e[:, i, j], stats.gamma(n).cdf).pvalue > 1e-3, \
            (i, j)
    rows = relay_stats(cfg, substream(4, CTX_RELAY, n), rounds=5000)
    for col in range(_A):
        assert stats.kstest(rows[:, col], stats.gamma(n).cdf).pvalue \
            > 1e-3, col


@pytest.mark.parametrize("zero", ["var_direct", "var_cross", "var_relay"])
def test_draws_do_not_read_the_variances(zero):
    # the draws are unit variates: a zero variance, or any other, leaves
    # them as they are, and only the verdicts read it
    for draw in (draw_bs_channels, relay_stats):
        want = draw(make_cfg(), substream(5, CTX_DIRECT, 0), rounds=100)
        got = draw(make_cfg(**{zero: 0.0}), substream(5, CTX_DIRECT, 0),
                   rounds=100)
        assert np.array_equal(got, want)
        assert (got > 0.0).all()


def test_relay_channel_variance():
    # each of the M antennas of either unit relay link carries variance 1:
    # E A = E ||g1||^2 and E (B + C) = E ||g2||^2 are both M; each unit BS
    # gain sums N entries of variance 1
    cfg = make_cfg(N=2, M=4, var_relay=3.0)
    rows = relay_stats(cfg, substream(2, CTX_RELAY, 0), rounds=20000)
    a, b, c = rows[:, _A:].T
    assert abs(np.mean(a) / 4 - 1.0) < 0.05
    assert abs(np.mean(b + c) / 4 - 1.0) < 0.05
    assert np.allclose(rows[:, :_A].mean(axis=0), 2.0, rtol=0.05)
    assert (rows >= 0.0).all()


def test_relay_channel_shapes():
    # the draw writes into the array it is given and returns it
    cfg = make_cfg(M=5)
    rng = substream(3, CTX_RELAY, 1)
    for rounds in (1, 7):
        out = np.empty((rounds, STATS))
        assert draw_relay_stats(cfg, rng, out) is out


@pytest.mark.parametrize("m", [2, 3, 8])
def test_relay_gains_follow_gamma_law(m):
    # A = ||g1||^2, B = ||P_perp_g1 g2||^2 and C = |g1^H g2|^2 / ||g1||^2
    # of two CN(0, v I_M) links are independent Gamma(M), Gamma(M - 1) and
    # Gamma(1) variates times v; so ||g2||^2 = B + C is Gamma(M) and
    # ||P_perp_g2 g1||^2 = A B / (B + C) is Gamma(M - 1), in units of v.
    # Each passes a KS test, both as reduced from complex draws over v and
    # as the engine draws it
    cfg = make_cfg(M=m, var_relay=2.5)
    rounds = 5000
    reduced = relay_gains(cn(substream(28, CTX_RELAY, m), (rounds, 2, m),
                             cfg.var_relay)) / cfg.var_relay
    drawn = relay_stats(cfg, substream(29, CTX_RELAY, m), rounds)[:, _A:]
    for source, abc in (("complex", reduced), ("gamma", drawn)):
        a, b, c = abc.T
        for name, x, order in (("A", a, m), ("B", b, m - 1), ("C", c, 1),
                               ("B + C", b + c, m),
                               ("AB / (B + C)", a * b / (b + c), m - 1)):
            assert stats.kstest(x, stats.gamma(order).cdf).pvalue > 1e-3, \
                (source, name)
