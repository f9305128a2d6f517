import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relayarq.channel import (CTX_DIRECT, CTX_RELAY, STATS,
                              ContractViolationError, SystemConfig, cn,
                              draw_bs_channels, draw_relay_stats, substream)
from relayarq.outage import UnitSystem, arq_outage, outage_interference_n3
import relayarq.simulate as simulate
from relayarq.simulate import (
    MAX_TRIALS,
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
    """The unit-variance inputs of ``judge_relay`` for n trials, (e1, e2,
    stats), from their round-1 and round-2 BS gains (n, 2, 2) and relay
    channels (n, 2, M), all drawn at cfg's variances."""
    return (unit(e1, bs_var(cfg)), unit(e2, bs_var(cfg)),
            unit(relay_gains(g), cfg.var_relay))


# each helper below reads and fills the run's memo dict ``memos``, as the
# engine function it calls does

def best_margins(memos, cfg, seed, trials):
    """The engine's best direct margins, at cfg's own kappa: the array
    its direct run leaves in the margins memo."""
    simulate_direct(cfg, trials, seed, memos)
    return memos["direct"][2]


def shared_rounds(memos, cfg, seed, trials):
    """The memoised BS rounds of attempts 0 and 1, read-only (trials, 2,
    2) each."""
    return tuple(simulate._drawn(memos, simulate.draw_bs_channels, cfg.N,
                                 seed, CTX_DIRECT, attempt, trials)
                 for attempt in range(simulate.ROUNDS))


def relay_stats(memos, cfg, seed, trials):
    """The memoised relay statistics, read-only (trials, STATS)."""
    return simulate._drawn(memos, simulate.draw_relay_stats, cfg.M, seed,
                           CTX_RELAY, 0, trials)


def relay_inputs(memos, cfg, seed, trials):
    """The engine's memoised inputs of ``judge_relay`` for ``trials``
    relay trials of ``seed``: direct attempts 0 and 1 and the relay
    statistics."""
    return (*shared_rounds(memos, cfg, seed, trials),
            relay_stats(memos, cfg, seed, trials))


def bs_rounds(memos, cfg, seed, trials):
    """The memoised BS rounds of attempts 0 and 1, (trials, 2, 2, 2)."""
    return np.stack(shared_rounds(memos, cfg, seed, trials), axis=1)


def relay_verdicts(cfg, seed, trials=PASS):
    """Draw the first ``trials`` relay trials of ``seed`` afresh and judge
    them."""
    return judge_relay(UnitSystem.of(cfg),
                       *relay_inputs({}, cfg, seed, trials))


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
    e = np.stack([draw_bs_channels(cfg.N, substream(14, CTX_DIRECT, attempt),
                                   rounds=ODD_TRIALS)
                  for attempt in range(cfg.retx)], axis=1) * bs_var(cfg)
    want = 0
    for trial in e:
        for i in (0, 1):
            want += not any(
                p_ant * float(r[i, i])
                >= (2.0 ** cfg.rate - 1.0)
                * (cfg.noise_var + p_ant * float(r[i, 1 - i]))
                for r in trial)
    assert simulate_direct(cfg, trials=ODD_TRIALS, seed=14).failures == want


@pytest.mark.usefixtures("small_pass")
@pytest.mark.parametrize("retx", [1, 3])
def test_direct_margins_are_prefix_stable(retx):
    # each engine reads its substreams in trial order, so a trial's draws
    # do not depend on the trial count: 300 trials end in a partial
    # pass, 512 fill two, and each run is the first rows of the next,
    # for the direct margins, the shared rounds and the relay statistics
    cfg = make_cfg(P=10.0, retx=retx)
    for rows in (best_margins, bs_rounds, relay_stats):
        runs = []
        for trials in (300, 512, 2000):
            runs.append(rows({}, cfg, 5, trials))
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
        units = UnitSystem.of(cfg)
        kappa, floor = units.kappa, units.floor
        assert not (simulate._direct_margin(unit(e, bs_var(cfg)), kappa)
                    >= floor).any()
        round1, _ = judge_relay(units, *stats_of(
            cfg, e, np.zeros_like(e), np.zeros((1, 2, cfg.M), complex)))
        assert not round1.any()
        # a round that clears the threshold still passes
        assert (simulate._direct_margin(
            unit(e + np.diag([30.0, 30.0]), bs_var(cfg)), kappa)
            >= floor).all()


def test_direct_margin_matches_the_diagonal_form():
    # the margin reads own gains from columns 0 and 3 of a flat round and
    # cross gains from columns 1 and 2: the same floats as the diagonal
    # views of the (L, 2, 2) round, in either layout, with -inf where
    # kappa cross overflows
    kappa = 3.0
    e = substream(31, CTX_DIRECT, 0).standard_gamma(3.0, (10 ** 4, 2, 2))
    e[:3, 0, 1] = e[2:5, 1, 0] = 1e308
    own = e.diagonal(axis1=1, axis2=2)
    cross = e[:, :, ::-1].diagonal(axis1=1, axis2=2)
    with np.errstate(over="ignore"):
        want = own - kappa * cross
        got = [simulate._direct_margin(x, kappa)
               for x in (e, e.reshape(-1, 4))]
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


def test_direct_validates_trials(monkeypatch):
    # a fractional, nan or infinite count once died with a TypeError
    # inside numpy, and MAX_TRIALS + 1 relay trials would ask for over
    # 1 GiB of memos: each is refused before anything is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("drawn before the trial count was checked")
    for name in ("draw_bs_channels", "draw_relay_stats", "substream"):
        monkeypatch.setattr(simulate, name, no_draw)
    for trials in (0, 2.5, math.nan, math.inf, -math.inf, MAX_TRIALS + 1):
        for engine in (simulate_direct, simulate_relay):
            with pytest.raises(ContractViolationError, match="trials"):
                engine(make_cfg(), trials=trials, seed=0)
        with pytest.raises(ContractViolationError, match="trials"):
            run_experiment("fig2", trials=trials, seed=0)


def test_engines_run_a_whole_float_count_as_its_int():
    cfg = make_cfg(P=10.0)
    for engine in (simulate_direct, simulate_relay):
        # each call draws afresh
        want = engine(cfg, trials=300, seed=4)
        assert engine(cfg, trials=300.0, seed=4) == want
        assert engine(cfg, trials=np.float64(300.0), seed=4) == want
        # True is the count 1
        assert engine(cfg, trials=True, seed=4) \
            == engine(cfg, trials=1, seed=4)
    assert simulate_direct(cfg, trials=True, seed=4).trials == 2


def test_engines_refuse_seeds_that_are_not_whole():
    # a fractional seed once ran as its truncation: 2.5 and 2.9 both
    # returned seed 2's table
    cfg = make_cfg(P=10.0)
    for engine in (simulate_direct, simulate_relay):
        for seed in (2.5, 2.9, math.nan, math.inf):
            with pytest.raises(ContractViolationError, match="seed"):
                engine(cfg, trials=300, seed=seed)
        assert engine(cfg, trials=300, seed=2.0) \
            == engine(cfg, trials=300, seed=2)


# ---------------------------------------------------------------------------
# relay protocol
# ---------------------------------------------------------------------------

def test_relay_trial_deterministic():
    cfg = make_cfg()
    round1, delivered = relay_verdicts(cfg, seed=7)
    again = relay_verdicts(cfg, seed=7)
    assert round1.shape == delivered.shape == (PASS, 2)
    assert np.array_equal(round1, again[0])
    assert np.array_equal(delivered, again[1])


def test_relay_trial_mode_none_when_rate_trivial():
    round1, delivered = relay_verdicts(make_cfg(rate=0.0), seed=8)
    assert delivered.all()
    assert round1.all()


def test_relay_trial_mode_multi_when_direct_hopeless():
    # no direct power to speak of: both users always fail round one, and the
    # relay (with plenty of power) carries both: 2P var_relay = 4e6, as a
    # strong relay channel
    cfg = make_cfg(P=1e-9, var_relay=2e15, rate=2.0)
    round1, delivered = relay_verdicts(cfg, seed=9)
    assert not round1.any()
    assert delivered.all()


def test_relay_modes_partition_and_counts():
    cfg = make_cfg(P=10.0, rate=1.0)
    est = simulate_relay(cfg, trials=300, seed=10)
    assert sum(est.mode_counts) + est.aborted == 300
    assert est.user1.failures + est.user2.failures == est.pooled.failures
    assert est.pooled.trials == 2 * (300 - est.aborted)


@pytest.mark.parametrize("cfg, want", [
    # fig2's R = 4 point at 40 dB and fig3's M = 2 point at 20 dB
    (SystemConfig.at_snr(40.0, N=3, M=3, noise_var=1.0, var_direct=2.0,
                         var_cross=1.0, var_relay=4.0, rate=4.0),
     (0, 8, 292)),
    (SystemConfig.at_snr(20.0, N=3, M=2, noise_var=1.0, var_direct=2.0,
                         var_cross=1.0, var_relay=4.0, rate=6.0),
     (0, 0, 300)),
], ids=["fig2-R4", "fig3-M2"])
def test_relay_mode_counts_are_pinned(cfg, want):
    # trials whose relay serves 0, 1 or 2 users, read off round 1; a
    # change to how trials are drawn or judged moves them
    assert simulate_relay(cfg, trials=300, seed=3).mode_counts == want


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
    # the curve's points share one memo dict
    memos = {}
    calls = count_draws(monkeypatch)
    # attempts 0 and 1 are the shared rounds, one whole draw each
    simulate_direct(make_cfg(P=10.0), trials=ODD_TRIALS, seed=18,
                    memos=memos)
    assert len(calls) == 2
    for kw in (dict(P=1e3), dict(noise_var=0.1), dict(P=1.0, noise_var=3.0),
               dict(rate=3.0), dict(var_cross=0.5)):
        simulate_direct(make_cfg(**kw), trials=ODD_TRIALS, seed=18,
                        memos=memos)
    assert len(calls) == 2


@pytest.mark.parametrize("field, value", [
    ("seed", 20), ("trials", 2 * PASS + 3), ("N", 2), ("var_direct", 3.0),
    ("var_cross", 0.5), ("rate", 1.5), ("retx", 3),
    ("P", 30.0), ("noise_var", 0.25), ("M", 5), ("var_relay", 1.0),
])
@pytest.mark.usefixtures("small_pass")
def test_memo_agrees_with_a_cleared_run(monkeypatch, field, value):
    keyed = field in ("seed", "trials", "N", "var_direct", "var_cross",
                      "rate", "retx")
    drawn = field in ("seed", "trials", "N", "retx")
    run = dict(seed=19, trials=ODD_TRIALS)
    cfg = dict(P=10.0, retx=2)
    memos = {}
    rows = best_margins(memos, make_cfg(**cfg), **run)
    assert rows.shape == (ODD_TRIALS, 2)
    (run if field in run else cfg)[field] = value
    calls = count_draws(monkeypatch)
    got = simulate_direct(make_cfg(**cfg), **run, memos=memos)
    # a key field builds new margins, which draw only where the shared
    # rounds' key (seed, trials, N) misses or an attempt past them is
    # added; P, noise_var and the relay fields hit, and a hit, or a
    # larger budget, which extends them in place, keeps the memo's own
    # rows; a call given no dict draws afresh
    assert bool(calls) == drawn
    assert (best_margins(memos, make_cfg(**cfg), **run) is rows) \
        != (keyed and field != "retx")
    assert simulate_direct(make_cfg(**cfg), **run) == got


def test_best_margins_rise_with_the_attempt_budget():
    # attempt a is the same round under every budget past a, so one more
    # attempt can only raise a message's best margin; each budget is
    # drawn afresh
    cfg = make_cfg(P=10.0)
    last = best_margins({}, make_cfg(P=10.0, retx=1), 24, ODD_TRIALS)
    for attempts in range(2, 11):
        got = best_margins({}, dataclasses.replace(cfg, retx=attempts), 24,
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
    # a memo at `first` attempts draws only the attempts it lacks: a
    # shared round not yet read in one whole draw, each later attempt one
    # draw per pass, and extends its own array in place to the margins of
    # a fresh run, bit for bit: the memo's draws and the added ones are a
    # fresh run's draws; the last of the passes is partial
    trials = passes * PASS - 17
    calls = count_draws(monkeypatch)
    want = best_margins({}, make_cfg(P=10.0, retx=attempts), 25, trials)
    fresh = len(calls)
    memos = {}
    old = best_margins(memos, make_cfg(P=10.0, retx=first), 25, trials)
    kept = len(calls) - fresh
    got = best_margins(memos, make_cfg(P=30.0, retx=attempts), 25, trials)
    added = len(calls) - fresh - kept
    shared = len(range(first, min(attempts, simulate.ROUNDS)))
    later = len(range(max(first, simulate.ROUNDS), attempts))
    assert added == shared + passes * later
    assert kept + added == fresh
    assert got is old
    assert np.array_equal(got, want)


@pytest.mark.usefixtures("small_pass")
def test_smaller_budget_draws_afresh(monkeypatch):
    # 4 passes of attempt 2 are drawn again; attempts 0 and 1 are the
    # shared rounds
    memos = {}
    simulate_direct(make_cfg(P=10.0, retx=4), trials=ODD_TRIALS, seed=26,
                    memos=memos)
    calls = count_draws(monkeypatch)
    got = simulate_direct(make_cfg(P=10.0, retx=3), trials=ODD_TRIALS,
                          seed=26, memos=memos)
    assert len(calls) == 4
    assert simulate_direct(make_cfg(P=10.0, retx=3), trials=ODD_TRIALS,
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
    # more callers than cores share one memo dict and alternate between
    # two curves, so its one direct entry keeps being replaced under them;
    # every answer must still be the one a fresh serial run gives
    cfgs = [make_cfg(P=p, rate=r) for r in (1.0, 2.0) for p in (3.0, 30.0)]
    want = [simulate_direct(cfg, trials=2 * PASS, seed=23) for cfg in cfgs]
    memos = {}
    assert race(lambda i, j: simulate_direct(
        cfgs[i], trials=2 * PASS, seed=23, memos=memos), want) == []


def test_memo_under_racing_budgets():
    # callers share one memo dict and alternate between two attempt
    # budgets on one key, so the memo keeps being extended and drawn
    # afresh under them
    cfgs = [make_cfg(P=10.0, retx=r) for r in (2, 3)]
    want = [simulate_direct(cfg, trials=2 * PASS, seed=23) for cfg in cfgs]
    memos = {}
    assert race(lambda i, j: simulate_direct(
        cfgs[i], trials=2 * PASS, seed=23, memos=memos), want) == []


def test_memo_memory_is_16_bytes_per_trial():
    trials = 400_000
    cfg = make_cfg(P=10.0, retx=3)
    # slack: one pass's temporaries, its gains, margins and the bool mask
    # it counts failures with, up to 16 floats a row, and 64 KiB; the
    # shared rounds are drawn before the count starts
    slack = simulate.PASS_ROWS * 16 * 8 + 64 * 1024
    memos = {}
    shared_rounds(memos, cfg, 22, trials)
    tracemalloc.start()
    try:
        simulate_direct(cfg, trials=trials, seed=22, memos=memos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * trials + slack


def test_one_attempt_draws_only_round_0(monkeypatch):
    # a one-attempt run reads attempt 0 alone, so it draws that round from
    # its substream and no other
    counted = {name: count_draws(monkeypatch, name)
               for name in ("substream", "draw_bs_channels")}
    simulate_direct(make_cfg(P=10.0, retx=1), trials=ODD_TRIALS, seed=33)
    assert {k: len(v) for k, v in counted.items()} == dict(
        substream=1, draw_bs_channels=1)


def test_one_attempt_memory_is_48_bytes_per_trial():
    # round 0's 4 gains and the 2 margins, 48 B per trial, and the slack
    # of one pass as above; the round of attempt 1 is never drawn
    trials = 400_000
    slack = simulate.PASS_ROWS * 16 * 8 + 64 * 1024
    tracemalloc.start()
    try:
        simulate_direct(make_cfg(P=10.0, retx=1), trials=trials, seed=34)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * trials + slack


@pytest.mark.parametrize("engine", [simulate_direct, simulate_relay])
def test_a_lone_call_keeps_nothing(engine):
    # a call given no memo dict draws into a fresh one, which goes when
    # it returns: it keeps none of its 80 or 88 B per trial of memos
    trials = 200_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine(make_cfg(rate=4.0), trials=trials, seed=35)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 64 * 1024


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
    keyed = field in ("seed", "trials", "M")
    run = dict(seed=19, trials=ODD_TRIALS)
    cfg = dict(P=10.0, rate=1.0)
    memos = {}
    rows = relay_stats(memos, make_cfg(**cfg), **run)
    assert not rows.flags.writeable
    assert rows.shape == (ODD_TRIALS, simulate.STATS)
    (run if field in run else cfg)[field] = value
    calls = count_draws(monkeypatch, "draw_relay_stats")
    got = simulate_relay(make_cfg(**cfg), **run, memos=memos)
    # a key field draws afresh; the variances, the rate, the powers and
    # the noise hit, and a hit returns the memo's own statistics; a call
    # given no dict draws afresh
    assert bool(calls) == keyed
    assert (relay_stats(memos, make_cfg(**cfg), **run) is rows) != keyed
    assert simulate_relay(make_cfg(**cfg), **run) == got


def test_fig2_draws_its_relay_trials_once(monkeypatch):
    # 7 rates at one SNR: the relay statistics are drawn once, from one
    # substream, and attempts 0 and 1 once each, from their own, for both
    # engines at every rate; the run's points share its memo dict
    counted = {name: count_draws(monkeypatch, name) for name in
               ("substream", "draw_bs_channels", "draw_relay_stats")}
    run_experiment("fig2", trials=100, seed=0)
    assert {k: len(v) for k, v in counted.items()} == dict(
        substream=3, draw_bs_channels=2, draw_relay_stats=1)


def test_fig3_draws_its_bs_rounds_once(monkeypatch):
    # 5 relay sizes: the relay statistics are drawn once per M, and the
    # two BS rounds, which do not depend on M, once for all five
    counted = {name: count_draws(monkeypatch, name) for name in
               ("substream", "draw_bs_channels", "draw_relay_stats")}
    run_experiment("fig3", trials=100, seed=0)
    assert {k: len(v) for k, v in counted.items()} == dict(
        substream=7, draw_bs_channels=2, draw_relay_stats=5)


def test_fig1_builds_one_substream_per_attempt(monkeypatch):
    # its four curves draw attempts 0 to 9 between them, each attempt
    # from one substream whatever the trial count, in one pass here
    counted = {name: count_draws(monkeypatch, name)
               for name in ("substream", "draw_bs_channels")}
    run_experiment("fig1", trials=1000, seed=0)
    assert {k: len(v) for k, v in counted.items()} == dict(
        substream=10, draw_bs_channels=10)


def test_variance_sweeps_draw_once(monkeypatch):
    # the draws are unit variates, so a sweep over var_relay draws the
    # relay trials once, the direct engine then reads the rounds the relay
    # drew, and doubling var_direct and var_cross together keeps the
    # direct key, kappa = gamma var_cross / var_direct; the sweep's points
    # share one memo dict
    memos = {}
    calls = count_draws(monkeypatch, "draw_relay_stats")
    rounds = count_draws(monkeypatch)
    for var_relay in (1.0, 4.0, 16.0):
        simulate_relay(make_cfg(P=10.0, var_relay=var_relay),
                       trials=ODD_TRIALS, seed=29, memos=memos)
    assert len(calls) == 1            # one run, one draw
    assert len(rounds) == 2           # attempts 0 and 1
    rows = best_margins(memos, make_cfg(P=10.0), 29, ODD_TRIALS)
    assert best_margins(memos, make_cfg(P=10.0, var_direct=4.0,
                                        var_cross=2.0),
                        29, ODD_TRIALS) is rows
    assert len(rounds) == 2


def test_relay_memo_under_racing_callers():
    # more callers than cores share one memo dict and alternate between
    # two relay keys and two rates, with direct runs in between, so both
    # memo entries keep being replaced under them; every answer must be
    # the one a fresh serial run gives
    cfgs = [make_cfg(P=10.0, rate=r, M=m)
            for m in (3, 4) for r in (1.0, 3.0)]
    want = [simulate_relay(cfg, trials=2 * PASS, seed=23) for cfg in cfgs]
    memos = {}

    def run(i, j):
        got = simulate_relay(cfgs[i], trials=2 * PASS, seed=23, memos=memos)
        simulate_direct(cfgs[i], trials=PASS, seed=23, memos=memos)
        return got
    assert race(run, want) == []


def test_relay_memo_memory_is_24_bytes_per_trial():
    trials = 200_000
    assert STATS == 3
    # the memo keeps the array the draw returns, at any M; the slack is the
    # judge's temporaries, PASS_ROWS trials at a time, and 64 KiB; the
    # shared rounds are drawn before the count starts
    slack = simulate.PASS_ROWS * 16 * 8 + 64 * 1024
    for m in (3, 5000):
        memos = {}
        cfg = make_cfg(rate=4.0, M=m)
        shared_rounds(memos, cfg, 22, trials)
        tracemalloc.start()
        try:
            simulate_relay(cfg, trials=trials, seed=22, memos=memos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * trials + slack, m


@pytest.mark.parametrize("step", ["rate", "antennas", "budget"])
def test_a_sweep_step_holds_one_memo_per_engine(step):
    # a point that misses a memo frees it before drawing the next, so a
    # fig2-style rate step (a new kappa, the direct key), a fig3-style
    # antenna step (a new relay key) and a fig1-style budget step (the
    # direct memo extended in place, with no relay memo) never hold an
    # old memo next to its successor: the peak is at most the 8 + 2 +
    # STATS floats per trial (104 B) that MAX_TRIALS is derived from, and
    # 2 B per trial for a pass's temporaries; the budget step holds no
    # relay memo, so its bound is the 8 + 2 floats of the two rounds and
    # the margins, and the same 2 B
    trials = 400_000
    if step == "rate":
        cfgs = [make_cfg(rate=rate) for rate in (2.0, 3.0)]
    elif step == "antennas":
        cfgs = [make_cfg(rate=6.0, M=m) for m in (2, 3)]
    else:
        cfgs = [make_cfg(retx=retx) for retx in (1, 2, 3)]
    memos = {}                        # the sweep's points share it
    tracemalloc.start()
    try:
        for cfg in cfgs:
            if step != "antennas":
                simulate_direct(cfg, trials=trials, seed=32, memos=memos)
            if step != "budget":
                simulate_relay(cfg, trials=trials, seed=32, memos=memos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_trial = 8 * (4 * simulate.ROUNDS + 2 + STATS)
    assert per_trial == 104
    assert simulate.MAX_TRIALS == 2 ** 30 // per_trial
    if step == "budget":
        per_trial = 8 * (4 * simulate.ROUNDS + 2)
    assert peak <= (per_trial + 2) * trials


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
    assert ests[0].pooled.failures == 21      # seed 0's relay draw
    assert all(est == ests[0] for est in ests)


# fig2's 40 dB, R = 4 point, whose trials the scale test judges: its
# rounds 1 and 2 and its relay statistics
_FIG2_R4 = SystemConfig.at_snr(40.0, N=3, M=3, noise_var=1.0, var_direct=2.0,
                               var_cross=1.0, var_relay=4.0, rate=4.0)
_FIG2_R4_TRIALS = (
    *(draw_bs_channels(_FIG2_R4.N, substream(3, CTX_DIRECT, a), rounds=PASS)
      for a in (0, 1)),
    draw_relay_stats(_FIG2_R4.M, substream(3, CTX_RELAY, 0), PASS))


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
    want = judge_relay(UnitSystem.of(_FIG2_R4), *_FIG2_R4_TRIALS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = judge_relay(UnitSystem.of(cfg), *_FIG2_R4_TRIALS)
        assert np.array_equal(got[0], want[0])      # round1
        assert np.array_equal(got[1], want[1])      # delivered
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
    want = judge_relay(UnitSystem.of(_FIG2_R4), *_FIG2_R4_TRIALS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = judge_relay(UnitSystem.of(cfg), *_FIG2_R4_TRIALS)
        assert np.array_equal(got[0], want[0])      # round1
        assert np.array_equal(got[1], want[1])      # delivered
        assert simulate_direct(cfg, trials=1000, seed=3) \
            == simulate_direct(_FIG2_R4, trials=1000, seed=3)


def _unit_bits_at_scale(fields, k):
    """The bits of every field of the ``UnitSystem`` of _FIG2_R4 with
    ``fields`` times 2^k, formed where every warning is an error."""
    cfg = dataclasses.replace(
        _FIG2_R4, **{f: math.ldexp(getattr(_FIG2_R4, f), k) for f in fields})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return tuple(map(float.hex, UnitSystem.of(cfg)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-1074, 1009))
# the range of test_verdicts_do_not_depend_on_the_power_scale
@example(k=-1074)
@example(k=1009)
def test_unit_system_does_not_depend_on_the_power_scale(k):
    # P and noise_var times 2^k: every ratio is formed from mantissas and
    # exponents, so every field keeps its bits, subnormal scales included
    assert _unit_bits_at_scale(("P", "noise_var"), k) \
        == _unit_bits_at_scale((), 0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-1074, 1021))
# the range of test_verdicts_do_not_depend_on_the_channel_scale
@example(k=-1074)
@example(k=1021)
def test_unit_system_does_not_depend_on_the_channel_scale(k):
    # every channel variance and the noise times 2^k, at the same P
    assert _unit_bits_at_scale(("var_direct", "var_cross", "var_relay",
                                "noise_var"), k) \
        == _unit_bits_at_scale((), 0)


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
        round1, delivered = judge_relay(UnitSystem.of(cfg),
                                        *stats_of(cfg, e1, e2, g))
        assert round1.tolist() == [[True, False]]
        assert delivered.tolist() == [[True, True]]
        # past Y = 100 the SINR falls below gamma
        e2[0, 1, 0] = 100.0 * (1 + 1e-12)
        _, delivered = judge_relay(UnitSystem.of(cfg),
                                   *stats_of(cfg, e1, e2, g))
        assert delivered.tolist() == [[True, False]]


def test_relay_beats_direct_at_high_rate():
    cfg = make_cfg(rate=4.0)
    relay = simulate_relay(cfg, trials=150, seed=12)
    direct = simulate_direct(cfg, trials=150, seed=12)
    assert relay.pooled.p_hat < direct.p_hat


@pytest.mark.usefixtures("small_pass")
def test_relay_losses_failed_direct_attempt_0(monkeypatch):
    # relay round 1 is direct attempt 0, trial by trial: at every rate of
    # figure 2, judged in the engine's passes, a (trial, user) decodes
    # round 1 exactly where it passes attempt 0, so every message the
    # relay loses also failed attempt 0
    judged = []
    judge = simulate.judge_relay

    def kept(*args):
        judged.append(judge(*args))
        return judged[-1]
    monkeypatch.setattr(simulate, "judge_relay", kept)
    e = draw_bs_channels(make_cfg().N, substream(3, CTX_DIRECT, 0),
                         rounds=ODD_TRIALS)
    memos, seen = {}, set()           # the rate sweep shares its memos
    for rate in simulate.FIG2_RATES:
        cfg = simulate._cfg(simulate._FIG23_BASE, simulate.FIG2_SNR_DB,
                            rate=float(rate))
        judged.clear()
        est = simulate_relay(cfg, trials=ODD_TRIALS, seed=3, memos=memos)
        round1, delivered = map(np.concatenate, zip(*judged))
        lost = ~delivered
        units = UnitSystem.of(cfg)
        kappa, floor = units.kappa, units.floor
        with np.errstate(over="ignore"):
            failed0 = simulate._direct_margin(e, kappa) < floor
        assert len(judged) == 4 and est.pooled.failures == lost.sum()
        assert np.array_equal(round1, ~failed0), rate
        assert not (lost & ~failed0).any(), rate
        seen |= {(f, x) for f, x in zip(failed0.flat, lost.flat)}
    # some failures are rescued, some lost
    assert seen >= {(True, True), (True, False)}


def test_zero_relay_channel_fails_retransmission():
    # a relay that reaches nobody rescues nobody, in either relay mode
    cfg = make_cfg(P=10.0, rate=2.0, var_relay=0.0)
    round1, delivered = relay_verdicts(cfg, seed=13)
    assert np.array_equal(delivered, round1)
    assert {1, 2} <= set((~round1).sum(axis=1).tolist())
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


# the reference's name of each relay mode, indexed by the users it serves
REFERENCE_MODES = ("none", "single-user", "multiuser")


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
        e1 = draw_bs_channels(cfg.N, sub, rounds=PASS) * bs_var(cfg)
        e2 = draw_bs_channels(cfg.N, sub, rounds=PASS) * bs_var(cfg)
        g = cn(sub, (PASS, 2, cfg.M), cfg.var_relay)
        if parallel:
            g = near_parallel(rng, g)
        if zero:
            g[:PASS // 3, 1] = 0.0      # nothing to null toward user 2
            g[-PASS // 3:, 0] = 0.0
        # the engine judges by the unit (A, B, C) the channels reduce to
        round1, delivered = judge_relay(UnitSystem.of(cfg),
                                        *stats_of(cfg, e1, e2, g))
        for i in range(PASS):
            ok, mode, final = relay_trial_reference(cfg, e1[i], e2[i], g[i])
            assert tuple(round1[i]) == ok, (case, i)
            assert mode == REFERENCE_MODES[ok.count(False)], (case, i)
            assert tuple(delivered[i]) == final, (case, i)
            modes_seen.add(mode)
            if mode in outcomes:
                outcomes[mode].add(final)
        draws += PASS
    assert draws >= 5000
    assert modes_seen == set(REFERENCE_MODES)
    # both relay modes rescue some messages and lose others
    assert {(True, True), (False, False)} <= outcomes["multiuser"]
    assert {True, False} <= {all(f) for f in outcomes["single-user"]}


def test_relay_stats_layout():
    # the relay links of every relay trial of a run come from the one
    # substream keyed 0, a row of 3 floats per trial, in trial order, and
    # its rounds 1 and 2 are direct attempts 0 and 1, each drawn whole
    cfg = make_cfg(M=4)
    n = 37
    want = draw_relay_stats(cfg.M, substream(26, CTX_RELAY, 0), n)
    e1, e2, got = relay_inputs({}, cfg, 26, n)
    assert got.shape == (n, STATS)
    assert np.array_equal(got, want)
    for attempt, e in enumerate((e1, e2)):
        assert not e.flags.writeable
        assert np.array_equal(e, draw_bs_channels(
            cfg.N, substream(26, CTX_DIRECT, attempt), rounds=n))


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
