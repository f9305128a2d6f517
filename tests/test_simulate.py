import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relayarq.channel import (CTX_DIRECT, CTX_RELAY, STATS, SystemConfig,
                              _E1, cn, draw_bs_channels, draw_relay_stats,
                              substream)
from relayarq.errors import ContractViolationError
from relayarq.outage import arq_outage, direct_test, outage_interference_n3
import relayarq.simulate as simulate
from relayarq.simulate import (
    MODES,
    OutageEstimate,
    judge_relay,
    run_experiment,
    simulate_direct,
    simulate_relay,
)

from _oracles import relay_gains, relay_trial_reference

# a pass size the tests patch into the engines (``small_pass``), so that
# a few hundred trials cross pass boundaries, and a trial count that leaves
# the last pass partial and gives 4 passes
PASS = 256
ODD_TRIALS = 3 * PASS + 17


@pytest.fixture
def small_pass(monkeypatch):
    """Run both engines in passes of PASS rows."""
    monkeypatch.setattr(simulate, "PASS_ROWS", PASS)


def make_cfg(**kw):
    base = dict(N=3, M=3, P=1e4, noise_var=1.0, var_direct=2.0,
                var_cross=1.0, var_relay=4.0, rate=2.0, retx=2)
    base.update(kw)
    return SystemConfig(**base)


def bs_var(cfg):
    """Variance of each BS link, shaped as a round of BS gains: entry
    [i, j] of the link from BS j to user i."""
    return np.array([[cfg.var_direct, cfg.var_cross],
                     [cfg.var_cross, cfg.var_direct]])


def unit(x, var):
    """Gains x of variance var in units of var. A zero variance leaves
    nothing to scale: any unit draw gives the zero channel, so take 1."""
    return np.divide(x, var, out=np.ones_like(x), where=var > 0)


def stats_of(cfg, e1, e2, g):
    """The unit-variance relay statistics of n trials, in the engine's
    column order, from their round-1 and round-2 BS gains (n, 2, 2) and
    relay channels (n, 2, M), all drawn at cfg's variances."""
    n = len(e1)
    e1, e2 = unit(e1, bs_var(cfg)), unit(e2, bs_var(cfg))
    return np.column_stack([e1.reshape(n, 4), e2[:, 0, 1], e2[:, 1, 0],
                            unit(relay_gains(g), cfg.var_relay)])


def best_margins(cfg, seed, trials):
    """The engine's best direct margins, at cfg's own kappa."""
    return simulate._best_margins(cfg, seed, trials, direct_test(cfg)[0])


def relay_verdicts(cfg, seed, trials=PASS):
    """Draw the first ``trials`` relay trials of ``seed`` afresh and judge
    them."""
    simulate.clear_memos()
    return judge_relay(cfg, simulate._relay_stats(cfg, seed, trials))


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


@pytest.mark.usefixtures("small_pass")
def test_direct_block_layout():
    # attempt a of every trial draws one round of unit gains per trial
    # from the substream keyed a, in one call here and PASS rounds at a
    # time in the engine; a loss is a message whose every round, at the
    # config's variances, falls short, judged here entry by entry
    cfg = make_cfg(P=10.0, retx=3)
    p_ant = cfg.P / cfg.N
    e = np.stack([draw_bs_channels(cfg, substream(14, CTX_DIRECT, attempt),
                                   rounds=ODD_TRIALS)
                  for attempt in range(cfg.retx)], axis=1) * bs_var(cfg)
    want = 0
    for trial in e:
        for i in (0, 1):
            want += not any(
                p_ant * float(r[i, i])
                >= cfg.sinr_threshold
                * (cfg.noise_var + p_ant * float(r[i, 1 - i]))
                for r in trial)
    simulate.clear_memos()
    assert simulate_direct(cfg, trials=ODD_TRIALS, seed=14).failures == want


@pytest.mark.usefixtures("small_pass")
@pytest.mark.parametrize("retx", [1, 3])
def test_direct_margins_are_prefix_stable(retx):
    # each engine reads its substreams in trial order, so a trial's draws
    # do not depend on the trial count: 300 trials end in a partial
    # pass, 512 fill two, and each run is the first rows of the next,
    # for the direct margins and the relay statistics alike
    cfg = make_cfg(P=10.0, retx=retx)
    for rows in (best_margins, simulate._relay_stats):
        runs = []
        for trials in (300, 512, 2000):
            simulate.clear_memos()
            runs.append(rows(cfg, 5, trials))
        for short, long in zip(runs, runs[1:]):
            assert np.array_equal(long[:len(short)], short), rows


def test_direct_verdict_cannot_overflow():
    # at 3077 dB, (P/N) * 20 and (P/N) * 15 both overflow to inf, and the
    # SINR form compared inf >= inf; own - gamma cross = 20 - 45 fails
    cfg = SystemConfig.at_snr(3077.0, N=3, M=3, noise_var=1.0,
                              var_direct=2.0, var_cross=1.0, var_relay=4.0,
                              rate=2.0)
    e = np.array([[[20.0, 15.0], [15.0, 20.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa, floor = direct_test(cfg)
        assert not (simulate._direct_margin(unit(e, bs_var(cfg)), kappa)
                    >= floor).any()
        out = judge_relay(cfg, stats_of(cfg, e, np.zeros_like(e),
                                        np.zeros((1, 2, cfg.M), complex)))
        assert not out.round1.any()
        # a round that clears the threshold still passes
        assert (simulate._direct_margin(
            unit(e + np.diag([30.0, 30.0]), bs_var(cfg)), kappa)
            >= floor).all()


def test_direct_margin_matches_the_diagonal_form():
    # the margin reads own gains from columns 0 and 3 of a flat round and
    # cross gains from columns 1 and 2: the same floats as the diagonal
    # views of the (L, 2, 2) round, whatever the layout it is handed,
    # with -inf where kappa cross overflows
    kappa = 3.0
    e = substream(31, CTX_DIRECT, 0).standard_gamma(3.0, (10 ** 4, 2, 2))
    e[:3, 0, 1] = e[2:5, 1, 0] = 1e308
    own = e.diagonal(axis1=1, axis2=2)
    cross = e[:, :, ::-1].diagonal(axis1=1, axis2=2)
    with np.errstate(over="ignore"):
        want = own - kappa * cross
        stats = np.zeros((len(e), STATS))
        stats[:, _E1] = e.reshape(-1, 4)
        got = [simulate._direct_margin(x, kappa)
               for x in (e, e.reshape(-1, 4), stats[:, _E1])]
    assert np.isneginf(want).sum() == 6
    for margin in got:
        assert margin.shape == (len(e), 2)
        assert np.array_equal(margin, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(snrs=st.lists(st.floats(-50.0, 3075.0), min_size=2, max_size=30),
       seed=st.integers(0, 2), rate=st.sampled_from((0.5, 2.0, 6.0)))
def test_direct_failures_never_rise_with_snr(snrs, seed, rate):
    # common random numbers: at one seed every point judges the same
    # draws, so a higher SNR can only lower the floor and the losses
    fails = []
    for snr in sorted(snrs):
        cfg = SystemConfig.at_snr(snr, N=3, M=3, noise_var=1.0,
                                  var_direct=2.0, var_cross=1.0,
                                  var_relay=4.0, rate=rate)
        fails.append(simulate_direct(cfg, trials=1000, seed=seed).failures)
    assert all(b <= a for a, b in zip(fails, fails[1:])), fails


def test_direct_seed_sensitivity():
    cfg = make_cfg(P=10.0)
    a = simulate_direct(cfg, trials=3000, seed=5)
    b = simulate_direct(cfg, trials=3000, seed=6)
    assert a.failures != b.failures


def test_direct_validates_trials():
    # a fractional, nan or infinite count once died with a TypeError
    # inside numpy
    for trials in (0, 2.5, math.nan, math.inf, -math.inf):
        for engine in (simulate_direct, simulate_relay):
            with pytest.raises(ContractViolationError, match="trials"):
                engine(make_cfg(), trials=trials, seed=0)
        with pytest.raises(ContractViolationError, match="trials"):
            run_experiment("fig2", trials=trials, seed=0)


def test_engines_run_a_whole_float_count_as_its_int():
    cfg = make_cfg(P=10.0)
    for engine in (simulate_direct, simulate_relay):
        simulate.clear_memos()
        want = engine(cfg, trials=300, seed=4)
        simulate.clear_memos()
        assert engine(cfg, trials=300.0, seed=4) == want
        assert engine(cfg, trials=np.float64(300.0), seed=4) == want
        # True is the count 1
        simulate.clear_memos()
        assert engine(cfg, trials=True, seed=4) \
            == engine(cfg, trials=1, seed=4)
    assert simulate_direct(cfg, trials=True, seed=4).trials == 2


def test_engines_refuse_seeds_that_are_not_whole():
    # a fractional seed once ran as its truncation: 2.5 and 2.9 both
    # returned seed 2's table
    cfg = make_cfg(P=10.0)
    for engine in (simulate_direct, simulate_relay):
        for seed in (2.5, 2.9, math.nan, math.inf):
            simulate.clear_memos()
            with pytest.raises(ContractViolationError, match="seed"):
                engine(cfg, trials=300, seed=seed)
        simulate.clear_memos()
        assert engine(cfg, trials=300, seed=2.0) \
            == engine(cfg, trials=300, seed=2)


# ---------------------------------------------------------------------------
# relay protocol
# ---------------------------------------------------------------------------

def test_relay_trial_deterministic():
    cfg = make_cfg()
    a = relay_verdicts(cfg, seed=7)
    b = relay_verdicts(cfg, seed=7)
    assert a.mode.shape == (PASS,) and a.delivered.shape == (PASS, 2)
    assert np.array_equal(a.round1, b.round1)
    assert np.array_equal(a.mode, b.mode)
    assert np.array_equal(a.delivered, b.delivered)


def test_relay_trial_mode_none_when_rate_trivial():
    out = relay_verdicts(make_cfg(rate=0.0), seed=8)
    assert (out.mode == MODES.index("none")).all()
    assert out.delivered.all()
    assert out.round1.all()


def test_relay_trial_mode_multi_when_direct_hopeless():
    # no direct power to speak of: both users always fail round one, and the
    # relay (with plenty of power) carries both: 2P var_relay = 4e6, as a
    # strong relay channel
    cfg = make_cfg(P=1e-9, var_relay=2e15, rate=2.0)
    out = relay_verdicts(cfg, seed=9)
    assert (out.mode == MODES.index("multiuser")).all()
    assert not out.round1.any()
    assert out.delivered.all()


def test_relay_modes_partition_and_counts():
    cfg = make_cfg(P=10.0, rate=1.0)
    est = simulate_relay(cfg, trials=300, seed=10)
    assert sum(est.mode_counts) + est.aborted == 300
    assert est.user1.failures + est.user2.failures == est.pooled.failures
    assert est.pooled.trials == 2 * (300 - est.aborted)


# ---------------------------------------------------------------------------
# the direct-margin memo
# ---------------------------------------------------------------------------

def count_draws(monkeypatch, name="draw_bs_channels"):
    """Count the engine's calls of ``name`` from here on."""
    calls = []
    fn = getattr(simulate, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    monkeypatch.setattr(simulate, name, counted)
    return calls


@pytest.mark.usefixtures("small_pass")
def test_second_point_of_a_curve_draws_nothing(monkeypatch):
    simulate.clear_memos()
    calls = count_draws(monkeypatch)
    # one draw per pass and attempt: 4 passes, 2 attempts
    simulate_direct(make_cfg(P=10.0), trials=ODD_TRIALS, seed=18)
    assert len(calls) == 8
    for kw in (dict(P=1e3), dict(noise_var=0.1), dict(P=1.0, noise_var=3.0)):
        simulate_direct(make_cfg(**kw), trials=ODD_TRIALS, seed=18)
    assert len(calls) == 8


@pytest.mark.parametrize("field, value", [
    ("seed", 20), ("trials", 2 * PASS + 3), ("N", 2), ("var_direct", 3.0),
    ("var_cross", 0.5), ("rate", 1.5), ("retx", 3),
    ("P", 30.0), ("noise_var", 0.25), ("M", 5), ("var_relay", 1.0),
])
@pytest.mark.usefixtures("small_pass")
def test_memo_agrees_with_a_cleared_run(monkeypatch, field, value):
    keyed = field in ("seed", "trials", "N", "var_direct", "var_cross",
                      "rate", "retx")
    run = dict(seed=19, trials=ODD_TRIALS)
    cfg = dict(P=10.0, retx=2)
    simulate.clear_memos()
    rows = best_margins(make_cfg(**cfg), **run)
    assert not rows.flags.writeable
    assert rows.shape == (ODD_TRIALS, 2)
    (run if field in run else cfg)[field] = value
    calls = count_draws(monkeypatch)
    got = simulate_direct(make_cfg(**cfg), **run)
    # a key field draws afresh; P, noise_var and the relay fields hit,
    # and a hit returns the memo's own rows
    assert bool(calls) == keyed
    assert (best_margins(make_cfg(**cfg), **run) is rows) != keyed
    simulate.clear_memos()
    assert simulate_direct(make_cfg(**cfg), **run) == got


def test_best_margins_rise_with_the_attempt_budget():
    # attempt a is the same round under every budget past a, so one more
    # attempt can only raise a message's best margin; each budget is
    # drawn afresh
    cfg = make_cfg(P=10.0)
    simulate.clear_memos()
    last = best_margins(make_cfg(P=10.0, retx=1), 24, ODD_TRIALS)
    for attempts in range(2, 11):
        simulate.clear_memos()
        got = best_margins(dataclasses.replace(cfg, retx=attempts), 24,
                           ODD_TRIALS)
        assert np.all(got >= last), attempts
        assert np.any(got > last), attempts
        last = got


@pytest.mark.usefixtures("small_pass")
@pytest.mark.parametrize("passes", [1, 3])
@pytest.mark.parametrize("first, attempts", [
    (lo, hi) for hi in range(2, 6) for lo in range(1, hi)])
def test_memo_extends_to_a_larger_budget(monkeypatch, passes, first,
                                         attempts):
    # a memo at `first` attempts draws only the attempts it lacks, one
    # draw per pass, and gives the margins of a cleared run, bit for
    # bit, in a fresh array; the last of the passes is partial
    trials = passes * PASS - 17
    simulate.clear_memos()
    want = best_margins(make_cfg(P=10.0, retx=attempts), 25, trials)
    simulate.clear_memos()
    old = best_margins(make_cfg(P=10.0, retx=first), 25, trials)
    kept = old.copy()
    calls = count_draws(monkeypatch)
    got = best_margins(make_cfg(P=30.0, retx=attempts), 25, trials)
    assert len(calls) == passes * (attempts - first)
    assert np.array_equal(got, want)
    assert got is not old and not got.flags.writeable
    assert np.array_equal(old, kept)


@pytest.mark.usefixtures("small_pass")
def test_smaller_budget_draws_afresh(monkeypatch):
    simulate.clear_memos()
    simulate_direct(make_cfg(P=10.0, retx=3), trials=ODD_TRIALS, seed=26)
    calls = count_draws(monkeypatch)
    got = simulate_direct(make_cfg(P=10.0, retx=2), trials=ODD_TRIALS,
                          seed=26)
    assert len(calls) == 4 * 2
    simulate.clear_memos()
    assert simulate_direct(make_cfg(P=10.0, retx=2), trials=ODD_TRIALS,
                           seed=26) == got


@pytest.mark.parametrize("seed", [0, 27])
def test_fig1_failures_never_rise_with_the_budget(seed):
    _, rows = run_experiment("fig1", trials=1000, seed=seed)
    for snr in simulate.FIG1_SNR_DB:
        mc = [row[3] for row in rows if row[0] == snr]   # L rising
        assert mc == sorted(mc, reverse=True), (snr, mc)


def race(run, want, callers=6, rounds=40):
    """Callers, more than there are cores, each make ``rounds`` calls
    ``run(i, j)`` over the configs i in turn, with a 1 us switch interval;
    returns every answer that differs from ``want[i]``, and every error."""
    errors = []

    def caller(k):
        try:
            for j in range(rounds):
                i = (k + j) % len(want)
                got = run(i, j)
                if got != want[i]:
                    errors.append((k, j, got, want[i]))
        except Exception as exc:      # reported through errors
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=caller, args=(k,))
                for k in range(callers)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in pool)
    return errors


def test_memo_under_racing_callers():
    # more callers than cores alternate between two curves, so the one
    # memo entry keeps being replaced under them; every answer must still
    # be the one a serial run gives
    cfgs = [make_cfg(P=p, rate=r) for r in (1.0, 2.0) for p in (3.0, 30.0)]
    want = []
    for cfg in cfgs:
        simulate.clear_memos()
        want.append(simulate_direct(cfg, trials=2 * PASS, seed=23))
    assert race(lambda i, j: simulate_direct(
        cfgs[i], trials=2 * PASS, seed=23), want) == []


def test_memo_under_racing_budgets():
    # callers alternate between two attempt budgets on one key, so the
    # memo keeps being extended and drawn afresh under them
    cfgs = [make_cfg(P=10.0, retx=r) for r in (2, 3)]
    want = []
    for cfg in cfgs:
        simulate.clear_memos()
        want.append(simulate_direct(cfg, trials=2 * PASS, seed=23))
    assert race(lambda i, j: simulate_direct(
        cfgs[i], trials=2 * PASS, seed=23), want) == []


def test_memo_memory_is_16_bytes_per_trial():
    trials = 400_000
    cfg = make_cfg(P=10.0, retx=2)
    # slack: one pass's temporaries, its gains, margins and the bool mask
    # it counts failures with, up to 16 floats a row, and 64 KiB
    slack = simulate.PASS_ROWS * 16 * 8 + 64 * 1024
    simulate.clear_memos()
    tracemalloc.start()
    try:
        simulate_direct(cfg, trials=trials, seed=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        simulate.clear_memos()
    assert peak <= 16 * trials + slack


# ---------------------------------------------------------------------------
# the relay-statistics memo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("seed", 20), ("trials", 2 * PASS + 3), ("N", 2), ("M", 5),
    ("var_direct", 3.0), ("var_cross", 0.5), ("var_relay", 1.0),
    ("rate", 4.0), ("P", 30.0), ("noise_var", 0.25), ("retx", 3),
])
@pytest.mark.usefixtures("small_pass")
def test_relay_memo_agrees_with_a_cleared_run(monkeypatch, field, value):
    keyed = field in ("seed", "trials", "N", "M")
    run = dict(seed=19, trials=ODD_TRIALS)
    cfg = dict(P=10.0, rate=1.0)
    simulate.clear_memos()
    rows = simulate._relay_stats(make_cfg(**cfg), **run)
    assert not rows.flags.writeable
    assert rows.shape == (ODD_TRIALS, simulate.STATS)
    (run if field in run else cfg)[field] = value
    calls = count_draws(monkeypatch, "draw_relay_stats")
    got = simulate_relay(make_cfg(**cfg), **run)
    # a key field draws afresh; the variances, the rate, the powers and
    # the noise hit, and a hit returns the memo's own statistics
    assert bool(calls) == keyed
    assert (simulate._relay_stats(make_cfg(**cfg), **run) is rows) != keyed
    simulate.clear_memos()
    assert simulate_relay(make_cfg(**cfg), **run) == got


def test_fig2_draws_its_relay_trials_once(monkeypatch):
    # 7 rates at one SNR: the relay draws once, from one substream, and
    # the direct engine once per rate and attempt (gamma is part of its
    # margins), from one substream per attempt
    simulate.clear_memos()
    counted = {name: count_draws(monkeypatch, name) for name in
               ("substream", "draw_bs_channels", "draw_relay_stats")}
    run_experiment("fig2", trials=100, seed=0)
    assert {k: len(v) for k, v in counted.items()} == dict(
        substream=15, draw_bs_channels=14, draw_relay_stats=1)


def test_fig1_builds_one_substream_per_attempt(monkeypatch):
    # its four curves draw attempts 0 to 9 between them, each attempt
    # from one substream whatever the trial count, in one pass here
    simulate.clear_memos()
    counted = {name: count_draws(monkeypatch, name)
               for name in ("substream", "draw_bs_channels")}
    run_experiment("fig1", trials=1000, seed=0)
    assert {k: len(v) for k, v in counted.items()} == dict(
        substream=10, draw_bs_channels=10)


def test_variance_sweeps_draw_once(monkeypatch):
    # the draws are unit variates, so a sweep over var_relay draws the
    # relay trials once, and doubling var_direct and var_cross together
    # keeps the direct key, kappa = gamma var_cross / var_direct
    simulate.clear_memos()
    calls = count_draws(monkeypatch, "draw_relay_stats")
    for var_relay in (1.0, 4.0, 16.0):
        simulate_relay(make_cfg(P=10.0, var_relay=var_relay),
                       trials=ODD_TRIALS, seed=29)
    assert len(calls) == 1            # one run, one draw
    calls = count_draws(monkeypatch)
    simulate_direct(make_cfg(P=10.0), trials=ODD_TRIALS, seed=29)
    drawn = len(calls)
    simulate_direct(make_cfg(P=10.0, var_direct=4.0, var_cross=2.0),
                    trials=ODD_TRIALS, seed=29)
    assert len(calls) == drawn


def test_relay_memo_under_racing_callers():
    # more callers than cores alternate between two relay keys and two
    # rates, with direct runs in between, so both memo entries keep being
    # replaced under them; every answer must be the one a serial run gives
    cfgs = [make_cfg(P=10.0, rate=r, M=m)
            for m in (3, 4) for r in (1.0, 3.0)]
    want = []
    for cfg in cfgs:
        simulate.clear_memos()
        want.append(simulate_relay(cfg, trials=2 * PASS, seed=23))

    def run(i, j):
        got = simulate_relay(cfgs[i], trials=2 * PASS, seed=23)
        simulate_direct(cfgs[i], trials=PASS, seed=23)
        return got
    assert race(run, want) == []


def test_relay_memo_memory_is_72_bytes_per_trial():
    trials = 200_000
    assert STATS == 9
    # the draw writes straight into the memo, at any M; the slack is the
    # judge's temporaries, PASS_ROWS trials at a time, and 64 KiB
    slack = simulate.PASS_ROWS * 16 * 8 + 64 * 1024
    for m in (3, 5000):
        simulate.clear_memos()
        tracemalloc.start()
        try:
            simulate_relay(make_cfg(rate=4.0, M=m), trials=trials, seed=22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            simulate.clear_memos()
        assert peak <= 72 * trials + slack, m


@pytest.mark.parametrize("step", ["rate", "antennas"])
def test_a_sweep_step_holds_one_memo_per_engine(step):
    # a point that misses its engine's memo frees it before drawing the
    # next, so a fig2-style rate step (a new kappa, the direct key) and a
    # fig3-style antenna step (a new relay key) never hold an old memo next
    # to its successor: the peak is the 2 + STATS floats per trial that
    # MAX_TRIALS is derived from, and 2 B per trial for a pass's
    # temporaries (the old engine peaked at 104 and 144 B per trial)
    trials = 400_000
    if step == "rate":
        cfgs = [make_cfg(rate=rate) for rate in (2.0, 3.0)]
    else:
        cfgs = [make_cfg(rate=6.0, M=m) for m in (2, 3)]
    simulate.clear_memos()
    tracemalloc.start()
    try:
        for cfg in cfgs:
            if step == "rate":
                simulate_direct(cfg, trials=trials, seed=32)
            simulate_relay(cfg, trials=trials, seed=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        simulate.clear_memos()
    assert peak <= ((2 + STATS) * 8 + 2) * trials


# ---------------------------------------------------------------------------
# scale-free verdicts
# ---------------------------------------------------------------------------

def test_relay_outage_does_not_depend_on_the_noise_scale():
    # only P / noise_var matters; at 1e-170, 1e-200 and 1e200 the balanced
    # SINR's denominator under- or overflowed and every multiuser trial
    # read NaN and failed (pooled p 0.9835 instead of 0.0105)
    ests = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for noise in (1.0, 1e150, 1e-170, 1e-200, 1e200):
            cfg = SystemConfig.at_snr(40.0, N=3, M=3, noise_var=noise,
                                      var_direct=2.0, var_cross=1.0,
                                      var_relay=4.0, rate=4.0)
            ests.append(simulate_relay(cfg, trials=1000, seed=0))
    assert ests[0].pooled.failures == 15      # seed 0's relay draw
    assert all(est == ests[0] for est in ests)


# fig2's 40 dB, R = 4 point, whose statistics the scale test judges
_FIG2_R4 = SystemConfig.at_snr(40.0, N=3, M=3, noise_var=1.0, var_direct=2.0,
                               var_cross=1.0, var_relay=4.0, rate=4.0)
_FIG2_R4_STATS = draw_relay_stats(_FIG2_R4, substream(3, CTX_RELAY, 0),
                                  np.empty((PASS, STATS)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-1074, 1009))
# the ends of the valid range: the noise 2^k must be positive, and the
# multiuser relay power 2P = 2^(k + 14.3) finite
@example(k=-1074)
@example(k=1009)
def test_verdicts_do_not_depend_on_the_power_scale(k):
    # multiplying P and noise_var by 2^k (the relay powers P and 2P follow
    # P) keeps every ratio the verdicts read, so no verdict may change,
    # subnormal scales included, and nothing may over- or underflow into a
    # warning
    cfg = dataclasses.replace(
        _FIG2_R4, **{f: math.ldexp(getattr(_FIG2_R4, f), k)
                     for f in ("P", "noise_var")})
    want = judge_relay(_FIG2_R4, _FIG2_R4_STATS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = judge_relay(cfg, _FIG2_R4_STATS)
        assert np.array_equal(got.round1, want.round1)
        assert np.array_equal(got.mode, want.mode)
        assert np.array_equal(got.delivered, want.delivered)
        assert simulate_direct(cfg, trials=1000, seed=3) \
            == simulate_direct(_FIG2_R4, trials=1000, seed=3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-1074, 1021))
# the ends of the valid range: var_cross = noise_var = 2^k must be
# positive, and var_relay = 2^(k + 2) finite
@example(k=-1074)
@example(k=1021)
def test_verdicts_do_not_depend_on_the_channel_scale(k):
    # multiplying every channel variance and the noise by 2^k, at the same
    # P, keeps every ratio the verdicts read, so no verdict may change at
    # any scale, and nothing may over- or underflow into a warning
    cfg = dataclasses.replace(
        _FIG2_R4, **{f: math.ldexp(getattr(_FIG2_R4, f), k)
                     for f in ("var_direct", "var_cross", "var_relay",
                               "noise_var")})
    want = judge_relay(_FIG2_R4, _FIG2_R4_STATS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = judge_relay(cfg, _FIG2_R4_STATS)
        assert np.array_equal(got.round1, want.round1)
        assert np.array_equal(got.mode, want.mode)
        assert np.array_equal(got.delivered, want.delivered)
        assert simulate_direct(cfg, trials=1000, seed=3) \
            == simulate_direct(_FIG2_R4, trials=1000, seed=3)


def test_single_user_rescue_cannot_overflow():
    # at 3077 dB, Pr_single X and (P/N) Y both overflow to inf and the
    # SINR form read inf / inf = NaN as a loss; the SINR is
    # 100 / (15 / 3) = 20 >= gamma = 3
    cfg = SystemConfig.at_snr(3077.0, N=3, M=3, noise_var=1.0,
                              var_direct=2.0, var_cross=1.0, var_relay=4.0,
                              rate=2.0)
    e1 = np.array([[[20.0, 1.0], [15.0, 20.0]]])     # user 2 fails
    e2 = np.array([[[1.0, 1.0], [15.0, 1.0]]])       # Y = e2[1, 0] = 15
    g = np.array([[[1.0, 0.0, 0.0], [0.0, 10.0, 0.0]]], complex)   # X = 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = judge_relay(cfg, stats_of(cfg, e1, e2, g))
        assert out.round1.tolist() == [[True, False]]
        assert out.delivered.tolist() == [[True, True]]
        # past Y = 100 the SINR falls below gamma
        e2[0, 1, 0] = 100.0 * (1 + 1e-12)
        assert judge_relay(cfg, stats_of(cfg, e1, e2, g)).delivered.tolist() \
            == [[True, False]]


def test_relay_beats_direct_at_high_rate():
    cfg = make_cfg(rate=4.0)
    relay = simulate_relay(cfg, trials=150, seed=12)
    direct = simulate_direct(cfg, trials=150, seed=12)
    assert relay.pooled.p_hat < direct.p_hat


def test_zero_relay_channel_fails_retransmission():
    # a relay that reaches nobody rescues nobody, in either relay mode
    cfg = make_cfg(P=10.0, rate=2.0, var_relay=0.0)
    out = relay_verdicts(cfg, seed=13)
    assert np.array_equal(out.delivered, out.round1)
    assert {MODES.index("single-user"), MODES.index("multiuser")} \
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
        *(dict(P=10.0, rate=1.0, M=m, zero=True) for m in (2, 4)),
    ]
    modes_seen = set()
    outcomes = {"single-user": set(), "multiuser": set()}
    draws = 0
    for k, case in enumerate(cases):
        parallel = case.pop("parallel", False)
        zero = case.pop("zero", False)
        cfg = make_cfg(**case)
        sub = substream(16, 0, k)
        e1 = draw_bs_channels(cfg, sub, rounds=PASS) * bs_var(cfg)
        e2 = draw_bs_channels(cfg, sub, rounds=PASS) * bs_var(cfg)
        g = cn(sub, (PASS, 2, cfg.M), cfg.var_relay)
        if parallel:
            g = near_parallel(rng, g)
        if zero:
            g[:PASS // 3, 1] = 0.0      # nothing to null toward user 2
            g[-PASS // 3:, 0] = 0.0
        # the engine judges by the unit (A, B, C) the channels reduce to
        got = judge_relay(cfg, stats_of(cfg, e1, e2, g))
        for i in range(PASS):
            ok, mode, final = relay_trial_reference(cfg, e1[i], e2[i], g[i])
            assert tuple(got.round1[i]) == ok, (case, i)
            assert MODES[got.mode[i]] == mode, (case, i)
            assert got.mode[i] == ok.count(False), (case, i)
            assert tuple(got.delivered[i]) == final, (case, i)
            modes_seen.add(mode)
            if mode in outcomes:
                outcomes[mode].add(final)
        draws += PASS
    assert draws >= 5000
    assert modes_seen == set(MODES)
    # both relay modes rescue some messages and lose others
    assert {(True, True), (False, False)} <= outcomes["multiuser"]
    assert {True, False} <= {all(f) for f in outcomes["single-user"]}


def test_relay_stats_layout():
    # every relay trial of a run comes from the one substream keyed 0, a
    # row of 9 floats per trial, in trial order
    cfg = make_cfg(M=4)
    n = 37
    want = draw_relay_stats(cfg, substream(26, CTX_RELAY, 0),
                            np.empty((n, STATS)))
    simulate.clear_memos()
    got = simulate._relay_stats(cfg, 26, n)
    assert got.shape == (n, STATS)
    assert np.array_equal(got, want)


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


def test_fig1_closed_form_once_per_snr(monkeypatch):
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return outage_interference_n3(cfg)
    monkeypatch.setattr(simulate, "outage_interference_n3", counted)
    _, rows = run_experiment("fig1", trials=100, seed=0)
    assert len(calls) == len(simulate.FIG1_SNR_DB)
    # each cell is the L-attempt law of that point's own config, bit for bit
    for snr, attempts, analytic, *_ in rows:
        cfg = simulate._cfg(simulate._FIG1_BASE, snr, retx=attempts)
        assert analytic == arq_outage(outage_interference_n3(cfg), attempts)


def test_fig1_analytic_tracks_mc():
    _, rows = run_experiment("fig1", trials=3000, seed=1)
    for _, attempts, analytic, mc, ci in rows:
        guard = max(ci, 3.0 / 6000.0)
        assert abs(mc - analytic) <= 1.5 * guard


def test_unknown_preset_rejected():
    with pytest.raises(ContractViolationError):
        run_experiment("fig9", trials=100, seed=0)
