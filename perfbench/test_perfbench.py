"""Tests for the benchmark's own arithmetic: self time, percentiles, checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import figcheck
import run
from spans import (Tracer, covered_ns, layer_self_ns, percentile,
                   quartile_spread, self_times, tail_percentile)


def span(sid, parent, name, start, end, point=0, ok=True):
    return (sid, parent, name, start, end, point, ok)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered_ns([(10, 40), (30, 60), (70, 80)], 0, 100) == 60
    assert covered_ns([(10, 40), (30, 60)], 20, 50) == 30
    assert covered_ns([(5, 10), (10, 15)], 0, 100) == 10
    assert covered_ns([], 0, 100) == 0
    assert covered_ns([(200, 300)], 0, 100) == 0


def test_self_time_of_nested_spans():
    spans = [
        span(1, 0, "cli.main", 0, 100),
        span(2, 1, "simulate.simulate_relay", 10, 90),
        span(3, 2, "relay_multi.max_min_sinr", 20, 50),
        span(4, 3, "sdp.solve_feasibility", 25, 35),
        span(5, 3, "sdp.solve_feasibility", 35, 45),
        span(6, 2, "relay_multi.max_min_sinr", 60, 70),
    ]
    own = self_times(spans)
    assert own == {1: 20, 2: 40, 3: 10, 4: 10, 5: 10, 6: 10}
    assert sum(own.values()) == 100          # one thread: tiles the root
    layers = layer_self_ns(spans)
    assert layers["relay_multi"] == 20 and layers["sdp"] == 20
    assert layers["simulate"] == 40 and layers["cli"] == 20
    assert layers["linalg"] == 0             # every layer is reported


def test_self_time_counts_overlapping_children_once():
    # two chunk workers on two threads under one grid-point span
    spans = [
        span(1, 0, "simulate.simulate_relay", 0, 100),
        span(2, 1, "simulate._relay_chunk", 5, 80),
        span(3, 1, "simulate._relay_chunk", 5, 95),
    ]
    own = self_times(spans)
    assert own[1] == 10
    assert own[2] == 75 and own[3] == 90


def test_tracer_links_spans_and_counts_failures():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError
        return x

    def outer(x):
        return traced_leaf(x) + traced_leaf(x + 1)

    traced_leaf = tracer.wrap(leaf, "linalg.leaf")
    traced_outer = tracer.wrap(outer, "relay_multi.outer")
    assert traced_outer(1) == 3
    tracer.point += 1
    with pytest.raises(ValueError):
        traced_leaf(-1)
    by_id = {s[0]: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s[2] == "relay_multi.outer")
    leaves = [s for s in tracer.spans if s[2] == "linalg.leaf"]
    assert [s[1] for s in leaves[:2]] == [root[0], root[0]]
    assert leaves[2][1] == 0 and leaves[2][5] == 1 and not leaves[2][6]
    assert all(by_id[s[0]] is s for s in tracer.spans)


def test_install_skips_absent_names():
    mod = type(sys)("perfbench_fake_layer")
    mod.present = lambda: 1
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        missing = tracer.install([(mod.__name__, "present"),
                                  (mod.__name__, "gone")])
        assert missing == ["perfbench_fake_layer.gone"]
        assert mod.present() == 1 and len(tracer.spans) == 1
    finally:
        del sys.modules[mod.__name__]


# ---------------------------------------------------------------------------
# percentiles and the sample-count rule
# ---------------------------------------------------------------------------

def test_percentile_interpolates():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == 2.5
    assert percentile(list(range(101)), 98) == 98.0


@pytest.mark.parametrize("n, want", [
    (0, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (500, 98.0), (632, 98.0), (700, 98.0), (999, 98.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_needs_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want
    if want is not None:
        assert n * (100.0 - want) / 100.0 >= 10 - 1e-9


def test_quartile_spread():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3.0)


# ---------------------------------------------------------------------------
# output checks on hand-made CSVs
# ---------------------------------------------------------------------------

def _ci(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def _fig3_csv(trials=100, relay_p=0.05, bound=None, ci=None, rows=None):
    su = bound if bound is not None else figcheck.outage_single_user(
        3, 1.0, 100.0, 2.0, 6.0) ** 2
    lines = ["M,series,p,ci"]
    for m in figcheck.FIG3_M:
        lines.append(f"{m},single-user,{su!r},0")
        if ci is not None:
            c = ci
        else:
            c = _ci(relay_p, 2 * trials) if 0 <= relay_p <= 1 else 0.0
        lines.append(f"{m},relay-arq,{relay_p!r},{c!r}")
    return "\n".join(lines[:rows]) + "\n"


def test_fig3_table_passes():
    assert figcheck.check_figure("3", _fig3_csv(), 100, [0] * 5) == []


def test_relay_ci_uses_kept_trials():
    # one aborted trial at every point: n = 2 * 99
    text = _fig3_csv(relay_p=4 / 198, ci=_ci(4 / 198, 198))
    assert figcheck.check_figure("3", text, 100, [1] * 5) == []
    assert figcheck.check_figure("3", text, 100, [0] * 5)


@pytest.mark.parametrize("kw, needle", [
    (dict(ci=0.1), "ci="),
    (dict(relay_p=1.5), "outside [0, 1]"),
    (dict(relay_p=0.0513), "whole count"),
    (dict(bound=0.0049), "closed form"),
    (dict(rows=6), "rows, expected 10"),
])
def test_fig3_check_catches(kw, needle):
    problems = figcheck.check_figure("3", _fig3_csv(**kw), 100, [0] * 5)
    assert any(needle in p for p in problems), problems


def test_wrong_header_is_reported():
    text = _fig3_csv().replace("M,series", "m,series")
    assert "header" in figcheck.check_figure("3", text, 100, [0] * 5)[0]


def _fig1_csv(trials, shift=0.0):
    lines = ["SNR_dB,L,analytic,mc,ci"]
    n = 2 * trials
    for snr in figcheck.FIG1_SNR_DB:
        p = figcheck.outage_interference(3, 1e-3, 1e-3 * 10 ** (snr / 10),
                                         2.0, 1.0, 2.0)
        for attempts in figcheck.FIG1_ATTEMPTS:
            a = p ** attempts
            mc = min(1.0, round((a + shift) * n) / n)
            lines.append(f"{snr},{attempts},{a!r},{mc!r},{_ci(mc, n)!r}")
    return "\n".join(lines) + "\n"


def test_binomial_two_sided_p():
    # Binomial(4, 1/2): Pr{X <= 0} = 1/16
    assert figcheck.binomial_two_sided_p(0, 4, 0.5) == pytest.approx(1 / 8)
    assert figcheck.binomial_two_sided_p(2, 4, 0.5) == 1.0
    assert figcheck.binomial_two_sided_p(4, 4, 0.5) == pytest.approx(1 / 8)
    assert figcheck.binomial_two_sided_p(0, 10, 0.0) == 1.0
    assert figcheck.binomial_two_sided_p(1, 10, 0.0) == 0.0
    # the skewed upper tail: 34 of 600 at p = 0.029 is z = 4.0 but p > 1e-4
    p = figcheck.binomial_two_sided_p(34, 600, 0.02906)
    assert 1e-4 < p < 1e-3


def test_fig1_agreement_is_bonferroni_corrected():
    assert figcheck.check_figure("1", _fig1_csv(300), 300, []) == []
    problems = figcheck.check_figure("1", _fig1_csv(300, 0.05), 300, [])
    assert any("binomial p=" in p for p in problems)


def test_closed_forms_agree_with_the_package():
    outage = pytest.importorskip("relayarq.outage")
    from relayarq.channel import SystemConfig
    for snr in (0.0, 17.0, 40.0):
        for rate in (0.5, 2.0, 6.0):
            cfg = SystemConfig(N=3, M=3, P=10 ** (snr / 10), noise_var=1.0,
                               var_direct=2.0, var_cross=1.0, var_relay=4.0,
                               rate=rate)
            assert figcheck.outage_interference(
                3, 1.0, cfg.P, 2.0, 1.0, rate) == pytest.approx(
                outage.outage_interference_n3(cfg), rel=1e-10, abs=1e-300)
            assert figcheck.outage_single_user(
                3, 1.0, cfg.P, 2.0, rate) == pytest.approx(
                outage.outage_single_user(cfg), rel=1e-10, abs=1e-300)


# ---------------------------------------------------------------------------
# the benchmark's declared metrics
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(
        run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run._unit(m["name"]), m
