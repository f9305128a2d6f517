import math

import numpy as np
import pytest

from relayarq.channel import SystemConfig
from relayarq.errors import ContractViolationError
from relayarq.outage import arq_outage, outage_interference_n3
from relayarq.simulate import (
    MODE_MULTI,
    MODE_NONE,
    MODE_SINGLE,
    OutageEstimate,
    run_experiment,
    run_relay_trial,
    simulate_direct,
    simulate_relay,
)


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

def test_direct_matches_analytic():
    cfg = make_cfg(retx=1, P=10.0)
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


def test_direct_seed_sensitivity():
    cfg = make_cfg(P=10.0)
    a = simulate_direct(cfg, trials=3000, seed=5)
    b = simulate_direct(cfg, trials=3000, seed=6)
    assert a.failures != b.failures


def test_direct_validates_trials():
    with pytest.raises(ContractViolationError):
        simulate_direct(make_cfg(), trials=0, seed=0)


# ---------------------------------------------------------------------------
# relay protocol
# ---------------------------------------------------------------------------

def test_relay_trial_deterministic():
    cfg = make_cfg()
    a = run_relay_trial(cfg, seed=7, trial=13)
    b = run_relay_trial(cfg, seed=7, trial=13)
    assert a == b


def test_relay_trial_mode_none_when_rate_trivial():
    out = run_relay_trial(make_cfg(rate=0.0), seed=8, trial=0)
    assert out.mode == MODE_NONE
    assert out.user1_final and out.user2_final
    assert not out.user1_failed_round1 and not out.user2_failed_round1


def test_relay_trial_mode_multi_when_direct_hopeless():
    # no direct power to speak of: both users always fail round one, and the
    # relay (with plenty of power) carries both
    cfg = make_cfg(P=1e-9, Pr_multi=1e6, Pr_single=1e3, rate=2.0)
    for trial in range(5):
        out = run_relay_trial(cfg, seed=9, trial=trial)
        assert out.mode == MODE_MULTI
        assert out.user1_failed_round1 and out.user2_failed_round1
        assert out.user1_final and out.user2_final


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


def test_relay_beats_direct_at_high_rate():
    cfg = make_cfg(rate=4.0)
    relay = simulate_relay(cfg, trials=150, seed=12)
    direct = simulate_direct(cfg, trials=150, seed=12)
    assert relay.pooled.p_hat < direct.p_hat


def test_zero_relay_channel_fails_retransmission():
    # a relay that reaches nobody rescues nobody, in either relay mode
    cfg = make_cfg(P=10.0, rate=2.0, var_relay=0.0)
    modes = set()
    for trial in range(40):
        out = run_relay_trial(cfg, seed=13, trial=trial)
        modes.add(out.mode)
        assert out.user1_final == (not out.user1_failed_round1)
        assert out.user2_final == (not out.user2_failed_round1)
    assert {MODE_SINGLE, MODE_MULTI} <= modes
    est = simulate_relay(cfg, trials=40, seed=13)
    assert sum(est.mode_counts) == 40 and est.aborted == 0


def test_relay_validates_antennas():
    with pytest.raises(ContractViolationError):
        simulate_relay(make_cfg(M=1), trials=10, seed=0)


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_fig1_table_shape():
    tab = run_experiment("fig1", trials=200, seed=0)
    assert tab.columns == ("SNR_dB", "L", "analytic", "mc", "ci")
    assert len(tab.rows) == 9 * 4
    snrs = sorted({r[0] for r in tab.rows})
    assert snrs == [float(s) for s in range(0, 41, 5)]
    for row in tab.rows:
        assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0


def test_fig1_analytic_tracks_mc():
    tab = run_experiment("fig1", trials=3000, seed=1)
    for _, attempts, analytic, mc, ci in tab.rows:
        guard = max(ci, 3.0 / 6000.0)
        assert abs(mc - analytic) <= 1.5 * guard


def test_unknown_preset_rejected():
    with pytest.raises(ContractViolationError):
        run_experiment("fig9", trials=100, seed=0)
