"""relayarq benchmark: the three figure tables, timed from outside.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Every figure call runs ``relayarq.cli.main(["figure", ...])`` in a
fresh interpreter (``child.py``). The workload seed goes to the CLI as
``--seed``. Each call's CSV is checked (``figcheck.py``) and a failed check
is reported, never re-run.

``--trace 0`` measures end to end. Whole figure calls run one after
another, closed loop, for ``--seconds``: another call starts only while it
is expected to end in time, and the first call always runs, so a workload
whose call is longer than ``--seconds`` makes one call. Metrics are
medians over calls. Set-up is also sampled in extra interpreters until
there are SETUP_SAMPLES samples.

  wall_s        the figure call: ``go`` sent to ``done`` read, set-up excluded
  trials_per_s  direct plus relay Monte Carlo trials of the call / wall_s
  setup_s       spawn to ``relayarq.cli`` imported and ready
  peak_rss_mib  peak resident memory of the call's process

``--trace 1`` runs one traced call and reports the per-layer metrics of
``spans.py``. Spans and per-layer self-time totals go to
``perfbench/out/<workload>/trace-seed<N>.json``. ``trace.wall_s`` is the
traced call's wall time; set against ``wall_s`` of untraced runs it gives
the tracing overhead. ``trace.overhead_frac`` estimates that overhead
within the run: spans times the wrapper cost the child measures, over the
traced wall time less that cost. (A second, untraced call per traced run
would double the run and, on a shared machine, its ratio to the traced
call moves more with the machine than with the tracing.) With two
threads, layer self times add up to more than the wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (Monte Carlo trials), ``failed`` (aborted relay trials, or
every trial of a call whose output check failed) and ``metrics``.
"""

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import figcheck
from spans import by_name, layer_self_ns, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3
# a child that has not answered by then is killed and reported as hung
READY_TIMEOUT_S = 60.0
CALL_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    figure: str
    threads: int
    trials: int
    direct_points: int        # grid points that run simulate_direct
    relay_points: int         # grid points that run simulate_relay

    @property
    def trials_per_call(self) -> int:
        return (self.direct_points + self.relay_points) * self.trials


# fig3-relay-antennas-t2 is not among the workloads BENCHMARK.json declares:
# one call takes ~45-50 s on 2 cores, so the declared set would grow too
# slow to repeat. It is the only workload on the threaded chunk path; run
# it by name (or with ``all``).
WORKLOADS = {
    "fig1-direct": Workload("1", 1, 1000, 36, 0),
    "fig2-relay-rates": Workload("2", 1, 100, 7, 7),
    "fig3-relay-antennas-t2": Workload("3", 2, 100, 0, 5),
}

END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}


class ChildError(RuntimeError):
    pass


@dataclass
class Call:
    setup_s: float
    wall_s: float
    peak_rss_kib: int
    csv: str
    record: dict


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _reap(proc):
    """Wait for ``proc``; return its peak resident memory in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


@contextmanager
def _child(args, log):
    proc = subprocess.Popen(
        [sys.executable, "-u", str(HERE / "child.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
        env=_env(), cwd=ROOT, text=True)
    try:
        yield proc
    finally:
        if proc.returncode is None:
            proc.kill()
            _reap(proc)
        proc.stdin.close()
        proc.stdout.close()


def _read_line(proc, expect: str, log_path: Path, timeout: float) -> str:
    if not select.select([proc.stdout], [], [], timeout)[0]:
        raise ChildError(f"child gave no {expect!r} within {timeout:.0f} s")
    line = proc.stdout.readline()
    if not line.startswith(expect):
        _reap(proc)
        tail = log_path.read_text(errors="replace")[-2000:]
        raise ChildError(f"child exited with code {proc.returncode} before "
                         f"{expect!r}; its stderr ends:\n{tail}")
    return line


def measure_setup(workdir: Path) -> float:
    log_path = workdir / "setup.log"
    with open(log_path, "w") as log, _child(["setup"], log) as proc:
        t0 = time.perf_counter()
        _read_line(proc, "ready", log_path, READY_TIMEOUT_S)
        setup = time.perf_counter() - t0
        _reap(proc)
    if proc.returncode != 0:
        raise ChildError(f"set-up child exited with code {proc.returncode}")
    return setup


def run_call(wl: Workload, seed: int, trace: bool, workdir: Path) -> Call:
    csv_path = workdir / "figure.csv"
    record_path = workdir / "record.json"
    log_path = workdir / "child.log"
    for p in (csv_path, record_path):
        p.unlink(missing_ok=True)
    argv = ["figure", wl.figure, "--threads", str(wl.threads),
            "--trials", str(wl.trials), "--seed", str(seed),
            "-o", str(csv_path)]
    mode = "--trace" if trace else "--plain"
    with open(log_path, "w") as log, \
            _child(["figure", str(record_path), mode, "--", *argv],
                   log) as proc:
        t0 = time.perf_counter()
        _read_line(proc, "ready", log_path, READY_TIMEOUT_S)
        t1 = time.perf_counter()
        proc.stdin.write("go\n")
        proc.stdin.flush()
        _read_line(proc, "done", log_path, CALL_TIMEOUT_S)
        t2 = time.perf_counter()
        rss = _reap(proc)
    if proc.returncode != 0:
        raise ChildError(f"figure child exited with code {proc.returncode}")
    record = json.loads(record_path.read_text())
    record_path.unlink()
    return Call(t1 - t0, t2 - t1, rss, csv_path.read_text(), record)


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def check_call(wl: Workload, call: Call) -> list:
    counts = call.record["counts"]
    problems = []
    if call.record["exit_code"] != 0:
        problems.append(f"relayarq exited with code {call.record['exit_code']}")
    for key, points in (("direct_trials", wl.direct_points),
                        ("relay_trials", wl.relay_points)):
        if counts.get(key, 0) != points * wl.trials:
            problems.append(f"{key}: counted {counts.get(key, 0)}, "
                            f"expected {points * wl.trials}")
    problems += figcheck.check_figure(wl.figure, call.csv, wl.trials,
                                      counts.get("aborted_by_point", []))
    return problems


def completed_trials(call: Call) -> int:
    """Direct plus relay trials the call ran, less aborted relay trials."""
    counts = call.record["counts"]
    return (counts.get("direct_trials", 0) + counts.get("relay_trials", 0)
            - counts.get("aborted", 0))


def end_to_end(calls, setups) -> dict:
    walls = [c.wall_s for c in calls]
    return {
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(completed_trials(c) / c.wall_s
                                          for c in calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(c.peak_rss_kib / 1024.0
                                          for c in calls),
    }


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in (("_us", "us"), ("us_p50", "us"), ("us_tail", "us"),
                         ("us_per_call", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("tail_pct", "%")):
        if name.endswith(suffix):
            return unit
    if name.endswith("_frac") or ".mode_share." in name:
        return "ratio"
    return "count"


def layer_metrics(record: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced call (see spans.py for naming)."""
    spans, counts = record["spans"], record["counts"]
    durs = by_name(spans)
    failures = Counter(s[2] for s in spans if not s[6])
    m = {}

    def per(total, n):
        return total / n if n else 0.0

    def mean(name):
        d = durs.get(name, [])
        m[f"{name}.calls"] = len(d)
        m[f"{name}.us_per_call"] = per(sum(d) / 1e3, len(d))

    def tail(name):
        d = durs.get(name, [])
        p = tail_percentile(len(d))
        m[f"{name}.calls"] = len(d)
        m[f"{name}.us_p50"] = percentile(d, 50.0) / 1e3 if d else 0.0
        m[f"{name}.us_tail"] = percentile(d, p) / 1e3 if p else 0.0
        m[f"{name}.tail_pct"] = p or 0.0

    def failed_and_per_call(name, key, count):
        m[f"{name}.failures"] = failures[name]
        m[f"{name}.{key}"] = per(counts.get(count, 0),
                                 len(durs.get(name, ())) - failures[name])

    direct = counts.get("direct_trials", 0)
    relay = counts.get("relay_trials", 0)
    aborted = counts.get("aborted", 0)
    m["simulate.direct_trial_us"] = per(
        sum(durs.get("simulate.simulate_direct", ())) / 1e3, direct)
    m["simulate.relay_trial_us"] = per(
        sum(durs.get("simulate.simulate_relay", ())) / 1e3, relay)
    tail("simulate.run_relay_trial")
    for mode in ("none", "single", "multi"):
        m[f"simulate.mode_share.{mode}"] = per(counts.get("mode." + mode, 0),
                                               relay - aborted)
    m["simulate.abort_frac"] = per(aborted, relay)
    mean("channel.substream")
    mean("channel.draw_bs_channels")
    mean("channel.draw_relay_channels")
    tail("relay_multi.max_min_sinr")
    failed_and_per_call("relay_multi.max_min_sinr", "probes_per_call", "probes")
    mean("relay_multi.rank_reduce")
    mean("relay_multi.extract_beamformer")
    mean("sdp.solve_feasibility")
    failed_and_per_call("sdp.solve_feasibility", "newton_per_call", "newton")
    mean("relay_single.solve_single_user_beamformer")
    mean("linalg.herm_eig")
    mean("linalg.null_basis")
    mean("outage.outage_interference_n3")
    mean("outage.outage_single_user")
    m["cli.main.overhead_ms"] = (sum(durs.get("cli.main", ()))
                                 - sum(durs.get("simulate.run_experiment", ()))
                                 ) / 1e6
    for layer, ns in layer_self_ns(spans).items():
        m[f"layer.{layer}.self_s"] = ns / 1e9
        m[f"layer.{layer}.self_frac"] = ns / 1e9 / wall_s
    cost_s = len(spans) * record["wrapper_cost_ns"] / 1e9
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(spans)
    m["trace.wrapper_us"] = record["wrapper_cost_ns"] / 1e3
    m["trace.overhead_frac"] = cost_s / (wall_s - cost_s)
    return m


def per_layer_names() -> list:
    """Every metric name ``--trace 1`` reports, in report order."""
    fake = {"spans": [], "counts": {}, "wrapper_cost_ns": 0.0}
    return list(layer_metrics(fake, 1.0))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def machine_record(seed: int) -> dict:
    load = os.getloadavg()
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": [round(x, 2) for x in load],
            "platform": platform.platform(),
            "python": platform.python_version(),
            "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    machine = machine_record(seed)
    workdir = OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    if trace:
        calls, setups = [run_call(wl, seed, True, workdir)], []
        metrics = layer_metrics(calls[0].record, calls[0].wall_s)
    else:
        calls = []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            calls.append(run_call(wl, seed, False, workdir))
            now = time.perf_counter()
            if (now - start) + (now - begun) > seconds:
                break
        setups = [c.setup_s for c in calls]
        while len(setups) < SETUP_SAMPLES:
            setups.append(measure_setup(workdir))
        metrics = end_to_end(calls, setups)

    problems, attempted, failed = [], 0, 0
    for i, call in enumerate(calls):
        found = check_call(wl, call)
        problems += [f"call {i}: {p}" for p in found]
        attempted += wl.trials_per_call
        failed += (wl.trials_per_call if found
                   else call.record["counts"].get("aborted", 0))

    first = calls[0].record
    machine.update(first["versions"], blas=first["blas"])
    aborted = sum(c.record["counts"].get("aborted", 0) for c in calls)
    relay = sum(c.record["counts"].get("relay_trials", 0) for c in calls)
    result = {
        "workload": name, "trace": int(trace), "machine": machine,
        "calls": [{"wall_s": c.wall_s, "setup_s": c.setup_s,
                   "peak_rss_mib": c.peak_rss_kib / 1024.0,
                   "trials": completed_trials(c)} for c in calls],
        "setup_samples_s": setups,
        "abort_frac": aborted / relay if relay else 0.0,
        "missing_targets": first["missing_targets"],
        "problems": problems,
        "summary": {"correct": not problems, "attempted": attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": _unit(k)}
                                for k, v in metrics.items()}},
    }
    stem = f"seed{seed}-trace{int(trace)}"
    (workdir / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    if trace:
        record = calls[0].record
        (workdir / f"trace-seed{seed}.json").write_text(json.dumps({
            "workload": name, "seed": seed, "wall_s": calls[0].wall_s,
            "layer_self_s": {k: v / 1e9 for k, v in
                             layer_self_ns(record["spans"]).items()},
            "counts": record["counts"],
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns",
                            "point", "ok"],
            "spans": record["spans"]}, separators=(",", ":")))
    return result


def print_summary(result: dict):
    m, s = result["machine"], result["summary"]
    blas = m.get("blas", {})
    print(f"== {result['workload']}  seed={m['seed']}  trace={result['trace']}")
    print(f"machine: nproc={m['nproc']} affinity={m['affinity']} "
          f"load={m['loadavg_start']} python={m['python']} "
          f"numpy={m.get('numpy')} scipy={m.get('scipy')} "
          f"blas={blas.get('name')} {blas.get('version')} "
          f"threads={blas.get('threads')} env={blas.get('threads_env')}")
    walls = ", ".join(f"{c['wall_s']:.3f}" for c in result["calls"])
    print(f"calls: {len(result['calls'])} (wall s: {walls})")
    print(f"abort_frac: {result['abort_frac']:.6g} "
          f"(attempted {s['attempted']}, failed {s['failed']})")
    if result["missing_targets"]:
        print(f"not traced (absent): {', '.join(result['missing_targets'])}")
    verdict = "PASS" if s["correct"] else "FAIL"
    print(f"output check: {verdict}")
    for p in result["problems"]:
        print(f"  {p}")
    for k, v in s["metrics"].items():
        print(f"  {k:48s} {v['value']:>14.6g} {v['unit']}")
    if result["trace"]:
        share = (s["metrics"]["layer.relay_multi.self_frac"]["value"]
                 + s["metrics"]["layer.sdp.self_frac"]["value"])
        print(f"  relay_multi + sdp self time / wall_s: {share:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so no child outlives this process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "relayarq" / "cli.py").is_file():
        print(f"run.py: no relayarq sources under {SRC}; run from the root "
              "of a relayarq checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except ChildError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    for r in results:
        print_summary(r)
    for r in results:
        print(json.dumps(r["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
