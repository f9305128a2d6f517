import math
import os
from concurrent.futures import Future

import numpy as np
import pytest

from relayarq.channel import (CTX_DIRECT, SystemConfig, draw_bs_channels,
                              draw_relay_channels, substream)
from relayarq.errors import ContractViolationError
from relayarq.outage import arq_outage, outage_interference_n3
import relayarq.simulate as simulate
from relayarq.simulate import (
    BLOCK,
    MODE_MULTI,
    MODE_NONE,
    MODE_SINGLE,
    MODES,
    OutageEstimate,
    relay_block,
    relay_verdicts,
    run_experiment,
    simulate_direct,
    simulate_relay,
)

from _oracles import relay_trial_reference

# a trial count that leaves the last block partial and gives 4 blocks
ODD_TRIALS = 3 * BLOCK + 17


def make_cfg(**kw):
    base = dict(N=3, M=3, P=1e4, noise_var=1.0, var_direct=2.0,
                var_cross=1.0, var_relay=4.0, rate=2.0, retx=2)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

def test_outage_estimate_stats():
    est = OutageEstimate(trials=400, failures=100)
    assert est.p_hat == 0.25
    assert est.ci_halfwidth == pytest.approx(3 * math.sqrt(0.25 * 0.75 / 400))
    empty = OutageEstimate(trials=0, failures=0)
    assert math.isnan(empty.p_hat)


# ---------------------------------------------------------------------------
# direct link
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_direct_matches_analytic(n):
    cfg = make_cfg(N=n, retx=1, P=10.0)
    est = simulate_direct(cfg, trials=20000, seed=1)
    want = outage_interference_n3(cfg)
    sigma = math.sqrt(want * (1 - want) / est.trials)
    assert abs(est.p_hat - want) <= 4 * sigma


def test_direct_arq_composes():
    cfg = make_cfg(retx=2, P=10.0)
    est = simulate_direct(cfg, trials=20000, seed=2)
    want = arq_outage(outage_interference_n3(make_cfg(retx=1, P=10.0)), 2)
    sigma = math.sqrt(want * (1 - want) / est.trials)
    assert abs(est.p_hat - want) <= 4 * sigma


def test_direct_zero_rate_never_fails():
    est = simulate_direct(make_cfg(rate=0.0), trials=500, seed=3)
    assert est.p_hat == 0.0


def test_direct_thread_count_invariant():
    cfg = make_cfg(P=10.0)
    a = simulate_direct(cfg, trials=3000, seed=4, threads=1)
    b = simulate_direct(cfg, trials=3000, seed=4, threads=3)
    assert (a.trials, a.failures) == (b.trials, b.failures)


def test_direct_block_layout():
    # block b holds the rounds of its trials in trial-major order; a loss is
    # a message whose every round falls short, judged here entry by entry
    cfg = make_cfg(P=10.0, retx=3)
    p_ant = cfg.P / cfg.N
    want = 0
    for block in range(4):
        n = min(BLOCK, ODD_TRIALS - block * BLOCK)
        h = draw_bs_channels(cfg, substream(14, CTX_DIRECT, block),
                             rounds=n * cfg.retx).reshape(n, cfg.retx, 2, 2, -1)
        for trial in h:
            for i in (0, 1):
                want += not any(
                    p_ant * np.vdot(r[i, i], r[i, i]).real
                    >= cfg.sinr_threshold
                    * (cfg.noise_var + p_ant * np.vdot(r[i, 1 - i],
                                                       r[i, 1 - i]).real)
                    for r in trial)
    assert simulate_direct(cfg, trials=ODD_TRIALS, seed=14).failures == want


def test_direct_seed_sensitivity():
    cfg = make_cfg(P=10.0)
    a = simulate_direct(cfg, trials=3000, seed=5)
    b = simulate_direct(cfg, trials=3000, seed=6)
    assert a.failures != b.failures


def test_direct_validates_trials():
    for engine in (simulate_direct, simulate_relay):
        with pytest.raises(ContractViolationError, match="trials"):
            engine(make_cfg(), trials=0, seed=0)


# ---------------------------------------------------------------------------
# relay protocol
# ---------------------------------------------------------------------------

def test_relay_trial_deterministic():
    cfg = make_cfg()
    a = relay_block(cfg, seed=7, block=13)
    b = relay_block(cfg, seed=7, block=13)
    assert a.mode.shape == (BLOCK,) and a.delivered.shape == (BLOCK, 2)
    assert np.array_equal(a.round1, b.round1)
    assert np.array_equal(a.mode, b.mode)
    assert np.array_equal(a.delivered, b.delivered)


def test_relay_trial_mode_none_when_rate_trivial():
    out = relay_block(make_cfg(rate=0.0), seed=8, block=0)
    assert (out.mode == MODES.index(MODE_NONE)).all()
    assert out.delivered.all()
    assert out.round1.all()


def test_relay_trial_mode_multi_when_direct_hopeless():
    # no direct power to speak of: both users always fail round one, and the
    # relay (with plenty of power) carries both
    cfg = make_cfg(P=1e-9, Pr_multi=1e6, Pr_single=1e3, rate=2.0)
    out = relay_block(cfg, seed=9, block=0)
    assert (out.mode == MODES.index(MODE_MULTI)).all()
    assert not out.round1.any()
    assert out.delivered.all()


def test_relay_modes_partition_and_counts():
    cfg = make_cfg(P=10.0, rate=1.0)
    est = simulate_relay(cfg, trials=300, seed=10)
    assert sum(est.mode_counts) + est.aborted == 300
    assert est.user1.failures + est.user2.failures == est.pooled.failures
    assert est.pooled.trials == 2 * (300 - est.aborted)


def test_relay_thread_count_invariant():
    cfg = make_cfg(P=10.0, rate=1.0)
    a = simulate_relay(cfg, trials=120, seed=11, threads=1)
    b = simulate_relay(cfg, trials=120, seed=11, threads=3)
    assert a == b


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
@pytest.mark.parametrize("engine", [simulate_direct, simulate_relay],
                         ids=["direct", "relay"])
def test_thread_count_invariant_across_blocks(engine, threads):
    # four blocks, the last one partial: threads split them 4, 2+2, 2+1+1
    # and 1+1+1+1 (one thread idle)
    cfg = make_cfg(P=10.0, rate=1.0)
    want = engine(cfg, trials=ODD_TRIALS, seed=17, threads=1)
    assert engine(cfg, trials=ODD_TRIALS, seed=17, threads=threads) == want


@pytest.mark.parametrize("cores,want", [(None, 1), (2, 2), (64, 7)])
def test_thread_pool_capped_at_core_count(monkeypatch, cores, want):
    sizes, submitted = [], []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records its size, runs inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    cfg = make_cfg(P=10.0)
    got = simulate_direct(cfg, trials=7 * BLOCK, seed=5, threads=7)
    # seven runs of one block each, however few workers serve them
    assert sizes == [want]
    assert len(submitted) == 7
    monkeypatch.undo()
    assert got == simulate_direct(cfg, trials=7 * BLOCK, seed=5, threads=1)


def test_relay_beats_direct_at_high_rate():
    cfg = make_cfg(rate=4.0)
    relay = simulate_relay(cfg, trials=150, seed=12)
    direct = simulate_direct(cfg, trials=150, seed=12)
    assert relay.pooled.p_hat < direct.p_hat


def test_zero_relay_channel_fails_retransmission():
    # a relay that reaches nobody rescues nobody, in either relay mode
    cfg = make_cfg(P=10.0, rate=2.0, var_relay=0.0)
    out = relay_block(cfg, seed=13, block=0)
    assert np.array_equal(out.delivered, out.round1)
    assert {MODES.index(MODE_SINGLE), MODES.index(MODE_MULTI)} \
        <= set(out.mode.tolist())
    est = simulate_relay(cfg, trials=40, seed=13)
    assert sum(est.mode_counts) == 40 and est.aborted == 0


def near_parallel(rng, g):
    """Turn each relay pair into g_2 = c g_1 + eps z, eps from 1e-9 to 1."""
    n, _, m = g.shape
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    eps = 10.0 ** rng.uniform(-9.0, 0.0, n)
    z = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    g = g.copy()
    g[:, 1] = c[:, None] * g[:, 0] + eps[:, None] * z
    return g


def test_block_verdicts_match_per_trial_reference():
    """Array verdicts equal the beam-building reference on shared draws."""
    rng = np.random.default_rng(15)
    cases = [
        *(dict(P=1e4, rate=float(r)) for r in (2, 4, 6, 8)),   # fig2 sweep
        *(dict(P=100.0, rate=6.0, M=m) for m in (2, 3, 4, 5, 6)),  # fig3
        *(dict(P=10.0, rate=1.0, M=m) for m in (2, 3, 4, 5, 6)),
        dict(P=10.0, rate=0.0),
        dict(P=10.0, rate=2.0, var_relay=0.0),
        *(dict(P=1e4, rate=2.0, M=m, parallel=True) for m in (2, 3, 4, 5, 6)),
        dict(P=10.0, rate=1.0, M=4, parallel=True),
    ]
    modes_seen = set()
    outcomes = {MODE_SINGLE: set(), MODE_MULTI: set()}
    draws = 0
    for k, case in enumerate(cases):
        parallel = case.pop("parallel", False)
        cfg = make_cfg(**case)
        sub = substream(16, 0, k)
        h1 = draw_bs_channels(cfg, sub, rounds=BLOCK)
        h2 = draw_bs_channels(cfg, sub, rounds=BLOCK)
        g = draw_relay_channels(cfg, sub, rounds=BLOCK)
        if parallel:
            g = near_parallel(rng, g)
        got = relay_verdicts(cfg, h1, h2, g)
        for i in range(BLOCK):
            ok, mode, final = relay_trial_reference(cfg, h1[i], h2[i], g[i])
            assert tuple(got.round1[i]) == ok, (case, i)
            assert MODES[got.mode[i]] == mode, (case, i)
            assert tuple(got.delivered[i]) == final, (case, i)
            modes_seen.add(mode)
            if mode in outcomes:
                outcomes[mode].add(final)
        draws += BLOCK
    assert draws >= 5000
    assert modes_seen == set(MODES)
    # both relay modes rescue some messages and lose others
    assert {(True, True), (False, False)} <= outcomes[MODE_MULTI]
    assert {True, False} <= {all(f) for f in outcomes[MODE_SINGLE]}


def test_relay_validates_antennas():
    with pytest.raises(ContractViolationError):
        simulate_relay(make_cfg(M=1), trials=10, seed=0)


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_fig1_table_shape():
    columns, rows = run_experiment("fig1", trials=200, seed=0)
    assert columns == ("SNR_dB", "L", "analytic", "mc", "ci")
    assert len(rows) == 9 * 4
    snrs = sorted({r[0] for r in rows})
    assert snrs == [float(s) for s in range(0, 41, 5)]
    for row in rows:
        assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0


def test_fig1_analytic_tracks_mc():
    _, rows = run_experiment("fig1", trials=3000, seed=1)
    for _, attempts, analytic, mc, ci in rows:
        guard = max(ci, 3.0 / 6000.0)
        assert abs(mc - analytic) <= 1.5 * guard


def test_unknown_preset_rejected():
    with pytest.raises(ContractViolationError):
        run_experiment("fig9", trials=100, seed=0)
