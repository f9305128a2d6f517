import dataclasses
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from relayarq.channel import (
    CTX_DIRECT,
    CTX_RELAY,
    MAX_ANTENNAS,
    MAX_ATTEMPTS,
    MAX_FINITE,
    MAX_SNR_DB,
    STATS,
    ContractViolationError,
    SystemConfig,
    cn,
    draw_bs_channels,
    draw_relay_stats,
    span_coords,
    substream,
    whole,
)
from relayarq.outage import UnitSystem
from relayarq.relay_multi import max_min_sinr
from relayarq.relay_single import solve_single_user_beamformer
import relayarq.simulate as simulate

from _oracles import conjT, relay_gains


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


def test_at_snr_rejects_overflowing_power():
    with pytest.raises(ContractViolationError) as info:
        SystemConfig.at_snr(4000.0, N=3, M=3, noise_var=1.0, var_direct=2.0,
                            var_cross=1.0, var_relay=4.0, rate=2.0)
    assert str(info.value) == f"snr_db must be at most {MAX_SNR_DB!r}"


def test_snr_ceiling_is_the_last_finite_power_ratio():
    # 10^(SNR/10) is finite at MAX_SNR_DB and overflows one ulp above it,
    # where at_snr refuses the SNR itself, as it does inf, and no
    # OverflowError escapes; a small noise keeps P in range at the ceiling
    above = math.nextafter(MAX_SNR_DB, math.inf)
    assert math.isfinite(10.0 ** (MAX_SNR_DB / 10))
    with pytest.raises(OverflowError):
        10.0 ** (above / 10)
    kw = dict(N=3, M=3, noise_var=1e-300, var_direct=2.0, var_cross=1.0,
              var_relay=4.0, rate=2.0)
    assert SystemConfig.at_snr(MAX_SNR_DB, **kw).P \
        == 1e-300 * 10.0 ** (MAX_SNR_DB / 10)
    for snr_db in (above, 4000.0, math.inf):
        with pytest.raises(ContractViolationError) as info:
            SystemConfig.at_snr(snr_db, **kw)
        assert str(info.value) == f"snr_db must be at most {MAX_SNR_DB!r}"


def test_default_multiuser_relay_power_must_not_overflow():
    # P = 1e308 is finite but 2P is not: P may be at most half the float
    # range, so the multiuser relay power 2P is finite, and that half runs
    message = f"P must be at most {MAX_FINITE / 2!r}"
    with pytest.raises(ContractViolationError) as info:
        make_cfg(P=1e308)
    assert str(info.value) == message
    with pytest.raises(ContractViolationError) as info:
        SystemConfig.at_snr(3080.0, N=3, M=3, noise_var=1.0, var_direct=2.0,
                            var_cross=1.0, var_relay=4.0, rate=2.0)
    assert str(info.value) == message
    assert make_cfg(P=MAX_FINITE / 2).Pr_multi == MAX_FINITE


def test_relay_power_defaults():
    cfg = make_cfg(P=50.0)
    assert cfg.Pr_single == 50.0
    assert cfg.Pr_multi == 100.0


def test_config_holds_only_the_run_parameters():
    # the relay budgets are P and 2P, not fields: they cannot be set, and
    # they follow P through dataclasses.replace
    assert [f.name for f in dataclasses.fields(SystemConfig)] == [
        "N", "M", "P", "noise_var", "var_direct", "var_cross", "var_relay",
        "rate", "retx"]
    with pytest.raises(TypeError):
        make_cfg(Pr_single=1.0)
    with pytest.raises(TypeError):
        make_cfg(Pr_multi=1.0)
    for p in (1e-300, 0.5, 1000.0, 8e307):
        cfg = dataclasses.replace(make_cfg(), P=p)
        assert (cfg.Pr_single, cfg.Pr_multi) == (p, 2 * p)
    with pytest.raises(dataclasses.FrozenInstanceError):
        make_cfg().Pr_single = 1.0


def test_sinr_threshold():
    assert UnitSystem.of(make_cfg(rate=2.0)).gamma == 3.0
    assert UnitSystem.of(make_cfg(rate=0.0)).gamma == 0.0


@pytest.mark.parametrize("kw", [
    dict(N=0), dict(M=0), dict(P=0.0), dict(noise_var=0.0),
    dict(var_direct=-1.0), dict(rate=-0.5), dict(retx=0),
    dict(P=1e308),
    dict(P=NAN), dict(P=INF), dict(noise_var=NAN), dict(var_direct=INF),
    dict(var_cross=NAN), dict(var_relay=INF), dict(rate=NAN), dict(rate=INF),
    dict(noise_var=-1.0), dict(var_relay=-1.0), dict(M=INF),
    dict(rate=1024.0),
    dict(N=2.5), dict(M=2.5), dict(retx=2.5), dict(N=NAN), dict(retx=INF),
    # the CLI's ceilings: the library refuses what the CLI refuses
    dict(N=MAX_ANTENNAS + 1), dict(M=MAX_ANTENNAS + 1),
    dict(retx=MAX_ATTEMPTS + 1),
    # a field that is not a real number within float range, and a count
    # that is not a real number, are refused before any comparison
    dict(P=10 ** 400), dict(P="1"), dict(rate=None),
    dict(N="3"), dict(M=None), dict(retx=1j),
])
def test_config_validation(kw):
    with pytest.raises(ContractViolationError):
        make_cfg(**kw)


def test_counts_are_whole_numbers_kept_as_int():
    cfg = make_cfg(N=4.0, M=np.int64(3), retx=3.0)
    assert (cfg.N, cfg.M, cfg.retx) == (4, 3, 3)
    assert all(type(v) is int for v in (cfg.N, cfg.M, cfg.retx))


def test_whole_reads_a_real_exactly():
    # a fraction past float range once raised OverflowError on its way to
    # float; it is compared exactly and refused by its bound, and NaN and
    # inf, in any type, are refused as not whole
    with pytest.raises(ContractViolationError) as info:
        whole(Fraction(10 ** 400), "n", high=MAX_ANTENNAS)
    assert str(info.value) == f"n must be at most {MAX_ANTENNAS}"
    assert whole(Fraction(10 ** 400), "n") == 10 ** 400
    assert whole(Fraction(6, 2), "n") == 3
    assert type(whole(np.float32(3.0), "n")) is int
    for value in (Fraction(7, 2), NAN, INF, -INF, np.float64(NAN),
                  np.float32(INF), 2.5):
        with pytest.raises(ContractViolationError) as info:
            whole(value, "n")
        assert str(info.value) == "n must be a whole number"


def test_substream_refuses_seeds_outside_64_bits():
    # the seed is Philox's 64-bit key: -1 would alias 2^64 - 1, and 2^64
    # would alias 0. It is a whole number too: 2.5 and 2.9 once ran as
    # seed 2. And it is a number: "1" and None are refused, not compared
    for seed in (-1, 2 ** 64, -2 ** 64, 2.5, 2.9, NAN, INF, -INF, "1", None):
        with pytest.raises(ContractViolationError, match="seed"):
            substream(seed, CTX_DIRECT, 0)
    top = substream(2 ** 64 - 1, CTX_DIRECT, 0).standard_normal(5)
    assert not np.array_equal(
        top, substream(0, CTX_DIRECT, 0).standard_normal(5))
    # a whole float runs as its int
    for seed, key in ((2.0, 2), (np.float64(2.0), 2), (2.0 ** 63, 2 ** 63)):
        assert np.array_equal(substream(seed, CTX_DIRECT, 0).random(5),
                              substream(key, CTX_DIRECT, 0).random(5))


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


def test_substream_keys_cannot_alias():
    # the index is one 64-bit counter word and the context the two above
    # it: an index of 2^64 once carried into the context, so (0, 0, 2^64)
    # drew the stream of (0, 1, 0), and -1 or "a" raised numpy's ValueError
    for context, index, message in (
            (0, 2 ** 64, "index must be at most 18446744073709551615"),
            (2 ** 128, 0, "context must be at most "
                          "340282366920938463463374607431768211455"),
            (0, -1, "index must be at least 0"),
            (-1, 0, "context must be at least 0"),
            (0, "a", "index must be a whole number"),
            (None, 0, "context must be a whole number"),
            (0, 1.5, "index must be a whole number")):
        with pytest.raises(ContractViolationError) as info:
            substream(0, context, index)
        assert str(info.value) == message
    # both top words are keys of their own, and a whole float is its int
    draws = {key: substream(0, *key).random(4).tobytes()
             for key in ((0, 0), (1, 0), (0, 2 ** 64 - 1), (1, 2 ** 64 - 1),
                         (2 ** 128 - 1, 0), (2 ** 128 - 1, 2 ** 64 - 1))}
    assert len(set(draws.values())) == len(draws)
    assert substream(0, 1.0, np.int64(2)).random(4).tobytes() == \
        substream(0, 1, 2).random(4).tobytes()


def test_draws_read_their_counts_by_whole():
    # n = 0 once drew all-zero gains; n = -1, a zero relay order and a
    # negative round or trial count raised numpy's ValueError, and n = "3"
    # a TypeError. Each is refused before the stream is read
    for draw, message in (
            (lambda rng: draw_bs_channels(0, rng, 5), "n must be at least 1"),
            (lambda rng: draw_bs_channels(-1, rng, 5), "n must be at least 1"),
            (lambda rng: draw_bs_channels("3", rng, 5),
             "n must be a whole number"),
            (lambda rng: draw_bs_channels(MAX_ANTENNAS + 1, rng, 5),
             f"n must be at most {MAX_ANTENNAS}"),
            (lambda rng: draw_bs_channels(3, rng, -1),
             "rounds must be at least 1"),
            (lambda rng: draw_relay_stats(0, rng, 5), "m must be at least 1"),
            (lambda rng: draw_relay_stats(MAX_ANTENNAS + 1, rng, 5),
             f"m must be at most {MAX_ANTENNAS}"),
            (lambda rng: draw_relay_stats(3, rng, -2),
             "trials must be at least 1"),
            (lambda rng: draw_relay_stats(3, rng, 2.5),
             "trials must be a whole number")):
        rng = substream(5, CTX_DIRECT, 0)
        with pytest.raises(ContractViolationError) as info:
            draw(rng)
        assert str(info.value) == message
        assert np.array_equal(rng.random(2),
                              substream(5, CTX_DIRECT, 0).random(2))
    # both ceilings are inclusive, a one-antenna relay has B = Gamma(0) = 0,
    # and a whole float or numpy int draws as its int
    assert draw_bs_channels(MAX_ANTENNAS, substream(5, 0, 0), 1).min() > 0
    one = draw_relay_stats(1, substream(5, CTX_RELAY, 0), 4)
    assert (one[:, 1] == 0).all() and (one[:, [0, 2]] > 0).all()
    assert draw_relay_stats(MAX_ANTENNAS, substream(5, 0, 0), 1).min() > 0
    assert np.array_equal(draw_bs_channels(3.0, substream(5, 0, 0), 2.0),
                          draw_bs_channels(3, substream(5, 0, 0), 2))
    assert np.array_equal(
        draw_relay_stats(np.int64(3), substream(5, 0, 0), np.int64(2)),
        draw_relay_stats(3, substream(5, 0, 0), 2))


@pytest.mark.parametrize("var", [-1.0, -0.0, 0.0, 4.0, NAN, INF, -INF])
def test_cn_takes_a_variance_in_0_to_inf(var):
    # a negative variance once gave NaN entries and a RuntimeWarning from
    # sqrt, and inf gave inf entries; each is refused before any draw. A
    # zero variance is the zero channel, which is an outcome
    rng = substream(36, CTX_DIRECT, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not 0 <= var < INF:
            with pytest.raises(ContractViolationError, match="variance"):
                cn(rng, 3, var)
            assert np.array_equal(rng.standard_normal(2), substream(
                36, CTX_DIRECT, 0).standard_normal(2))
            return
        g = cn(rng, (2, 3), var)
    assert g.shape == (2, 3) and g.dtype == complex
    assert np.isfinite(g).all() and (g == 0).all() == (var == 0)


def test_bs_channel_shapes():
    rng = substream(0, CTX_DIRECT, 0)
    for rounds in (1, 5):
        e = draw_bs_channels(4, rng, rounds=rounds)
        assert e.shape == (rounds, 2, 2) and e.dtype == np.float64


def test_bs_channel_variance_structure():
    # a unit gain sums N entries of variance 1, so its mean is N, on every
    # link whatever the config's variances
    e = draw_bs_channels(2, substream(1, CTX_DIRECT, 0), rounds=40000)
    assert np.allclose(e.mean(axis=0), 2.0, rtol=0.05)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_bs_gains_follow_gamma_law(n):
    # ||h||^2 of n CN(0, var) entries is var Gamma(n, 1): each link's unit
    # gain passes a KS test against Gamma(n, 1)
    e = draw_bs_channels(n, substream(4, CTX_DIRECT, n), rounds=5000)
    for i, j in np.ndindex(2, 2):
        assert stats.kstest(e[:, i, j], stats.gamma(n).cdf).pvalue > 1e-3, \
            (i, j)


@pytest.mark.parametrize("zero", ["var_direct", "var_cross", "var_relay"])
def test_draws_do_not_read_the_variances(zero):
    # the draws take their order, their stream and their count, and no
    # config: the engine draws the same unit variates at a zero variance,
    # or any other, and only the verdicts read it
    assert [list(inspect.signature(draw).parameters)
            for draw in (draw_bs_channels, draw_relay_stats)] == [
        ["n", "rng", "rounds"], ["m", "rng", "trials"]]
    drawn = []
    for cfg in (make_cfg(), make_cfg(**{zero: 0.0})):
        memos = {}                        # each config draws afresh
        drawn.append((simulate._drawn(memos, draw_bs_channels, cfg.N, 5,
                                      CTX_DIRECT, 0, 100),
                      simulate._drawn(memos, draw_relay_stats, cfg.M, 5,
                                      CTX_RELAY, 0, 100)))
    for want, got in zip(*drawn):
        assert np.array_equal(got, want)
        assert (got > 0.0).all()


def test_relay_channel_variance():
    # each of the M antennas of either unit relay link carries variance 1:
    # E A = E ||g1||^2 and E (B + C) = E ||g2||^2 are both M; each unit BS
    # gain sums N entries of variance 1
    rows = draw_relay_stats(4, substream(2, CTX_RELAY, 0), 20000)
    a, b, c = rows.T
    assert abs(np.mean(a) / 4 - 1.0) < 0.05
    assert abs(np.mean(b + c) / 4 - 1.0) < 0.05
    assert (rows >= 0.0).all()
    e = draw_bs_channels(2, substream(2, CTX_DIRECT, 0), rounds=20000)
    assert np.allclose(e.mean(axis=0), 2.0, rtol=0.05)


def test_relay_channel_shapes():
    # the draw returns a fresh float (trials, STATS) array, one row per
    # trial: the variates one Gamma([M, M - 1, 1]) draw writes into an
    # array of that shape, from a substream of the same key
    for trials in (1, 7):
        got = draw_relay_stats(5, substream(3, CTX_RELAY, trials), trials)
        assert got.shape == (trials, STATS)
        assert got.dtype == np.float64
        want = substream(3, CTX_RELAY, trials).standard_gamma(
            [5, 4, 1], out=np.empty((trials, STATS)))
        assert np.array_equal(got, want)


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
    drawn = draw_relay_stats(m, substream(29, CTX_RELAY, m), rounds)
    for source, abc in (("complex", reduced), ("gamma", drawn)):
        a, b, c = abc.T
        for name, x, order in (("A", a, m), ("B", b, m - 1), ("C", c, 1),
                               ("B + C", b + c, m),
                               ("AB / (B + C)", a * b / (b + c), m - 1)):
            assert stats.kstest(x, stats.gamma(order).cdf).pvalue > 1e-3, \
                (source, name)


@pytest.mark.parametrize("case", ["random", "parallel", "zero_first",
                                  "zero_both", "one_antenna"])
def test_span_coords_reconstruct_the_pair(case):
    # g1 = a Q0 and g2 = c Q0 + b Q1 with Q orthonormal, also where the
    # pair spans less than a plane; one antenna leaves Q1 = 0 and b = 0
    rng = np.random.default_rng(17)
    m = 1 if case == "one_antenna" else 4
    g1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    g2 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if case == "parallel":
        g2 = (0.5 - 1j) * g1
    if case in ("zero_first", "zero_both"):
        g1 = np.zeros(m, dtype=complex)
    if case == "zero_both":
        g2 = np.zeros(m, dtype=complex)
    q, a, b, c = span_coords(g1, g2)
    assert q.shape == (m, 2)
    scale = np.linalg.norm(g1) + np.linalg.norm(g2)
    assert np.allclose(a * q[:, 0], g1, atol=1e-15 * scale)
    assert np.allclose(c * q[:, 0] + b * q[:, 1], g2, atol=1e-15 * scale)
    if m > 1:
        assert np.allclose(conjT(q) @ q, np.eye(2), atol=1e-15)
    else:
        assert b == 0 and not q[:, 1].any()
    assert abs(a) ** 2 == pytest.approx(np.vdot(g1, g1).real, rel=1e-14)
    assert abs(b) ** 2 + abs(c) ** 2 == pytest.approx(np.vdot(g2, g2).real,
                                                       rel=1e-14)


def test_span_coords_flattens_each_channel():
    # a channel may come as (M,), (M, 1) or (1, M), real or complex: each
    # is the same length-M vector
    rng = np.random.default_rng(19)
    g1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g2 = rng.standard_normal(4)
    want = span_coords(g1, g2)
    for shape in ((4, 1), (1, 4)):
        got = span_coords(g1.reshape(shape), g2.reshape(shape))
        assert got[0].shape == (4, 2)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("shapes", [((3,), (4,)), ((3, 1), (1, 4)),
                                    ((2, 2), (3,))])
def test_span_coords_refuses_unequal_lengths(shapes):
    g1, g2 = (np.ones(shape) for shape in shapes)
    with pytest.raises(ContractViolationError,
                       match="relay channels must have equal length"):
        span_coords(g1, g2)


@pytest.mark.parametrize("design", [
    lambda g1, g2: solve_single_user_beamformer(g1, g2, 1.0),
    lambda g1, g2: max_min_sinr(g1, g2, 1.0)], ids=["single", "multi"])
def test_relay_designs_refuse_an_antenna_count_no_config_has(design):
    # a relay has 1 to MAX_ANTENNAS antennas, as SystemConfig's M does: an
    # empty pair or one past the ceiling is refused, and the ceiling solves
    for m in (0, MAX_ANTENNAS + 1):
        with pytest.raises(ContractViolationError,
                           match="relay antennas must"):
            design(np.ones(m), np.ones(m))
    rng = np.random.default_rng(23)
    g1, g2 = (rng.standard_normal(MAX_ANTENNAS) for _ in range(2))
    design(g1, g2)
