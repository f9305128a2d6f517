"""Span recording and the arithmetic the benchmark reports from it.

The benchmark traces relayarq from the outside: it replaces a module-level
name with a wrapper that records one span per call. Each wrapper sits on the
name where the caller looks the function up (``relayarq.simulate.substream``,
not ``relayarq.channel.substream``), because the package's modules import
these names directly. A span is named ``<defining module>.<function>``, so
``relayarq.simulate.max_min_sinr`` records spans named
``relay_multi.max_min_sinr`` and the layer of a span is the text before its
first dot.

Spans are kept in memory and written out when the run ends. Each holds
``(id, parent, name, start_ns, end_ns, point, ok)``: ``point`` numbers the
figure grid point the span ran in, ``ok`` is False when the call raised.
"""

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# (module the caller resolves the name in, attribute) for every traced call
TRACED = (
    ("relayarq.cli", "run_experiment"),
    ("relayarq.simulate", "simulate_direct"),
    ("relayarq.simulate", "simulate_relay"),
    ("relayarq.simulate", "_direct_chunk"),
    ("relayarq.simulate", "_relay_chunk"),
    ("relayarq.simulate", "run_relay_trial"),
    ("relayarq.simulate", "substream"),
    ("relayarq.simulate", "draw_bs_channels"),
    ("relayarq.simulate", "draw_relay_channels"),
    ("relayarq.simulate", "max_min_sinr"),
    ("relayarq.simulate", "solve_single_user_beamformer"),
    ("relayarq.simulate", "beamform_gain"),
    ("relayarq.simulate", "outage_interference_n3"),
    ("relayarq.simulate", "outage_single_user"),
    ("relayarq.simulate", "arq_outage"),
    ("relayarq.relay_multi", "solve_feasibility"),
    ("relayarq.relay_multi", "rank_reduce"),
    ("relayarq.relay_multi", "extract_beamformer"),
    ("relayarq.relay_multi", "herm_eig"),
    ("relayarq.relay_single", "null_basis"),
)

# one call per figure grid point; wrapped in untraced runs too, to count
# trials and aborts (the figure CSV drops both)
GRID_POINT = (
    ("relayarq.simulate", "simulate_direct"),
    ("relayarq.simulate", "simulate_relay"),
)

LAYERS = ("cli", "simulate", "channel", "outage", "relay_single",
          "relay_multi", "sdp", "linalg")

# percentiles a tail may be reported at, highest first
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _trials_arg(args, kwargs):
    return int(kwargs["trials"] if "trials" in kwargs else args[1])


def _tally_direct(counts, args, kwargs, est):
    counts["direct_trials"] += _trials_arg(args, kwargs)


def _tally_relay(counts, args, kwargs, est):
    counts["relay_trials"] += _trials_arg(args, kwargs)
    counts["aborted"] += est.aborted
    for mode, n in zip(("none", "single", "multi"), est.mode_counts):
        counts["mode." + mode] += n
    counts.setdefault("aborted_by_point", []).append(est.aborted)


def _tally_probes(counts, args, kwargs, sol):
    counts["probes"] += sol.probes


def _tally_newton(counts, args, kwargs, out):
    counts["newton"] += out.iterations


# what to read off a traced call's return value, keyed by span name
TALLIES = {
    "simulate.simulate_direct": _tally_direct,
    "simulate.simulate_relay": _tally_relay,
    "relay_multi.max_min_sinr": _tally_probes,
    "sdp.solve_feasibility": _tally_newton,
}


class Tracer:
    """Collects spans and counts from wrapped calls, on any thread.

    The thread that creates the tracer is the root thread. A span opened on
    another thread with no open span of its own (a chunk worker) takes the
    root thread's innermost open span as its parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.point = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._local.stack = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name=None):
        name = name or span_name(fn)
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, start, end,
                                   self.point, ok))
            if tally is not None:
                with self._lock:
                    tally(self.counts, args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> list:
        """Wrap each (module, attribute) of ``targets`` in place.

        Returns the targets that do not exist, unwrapped: a layer the
        program no longer has then reports zero calls.
        """
        missing = []
        for mod_name, attr in targets:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(getattr(mod, attr)))
            else:
                missing.append(f"{mod_name}.{attr}")
        return missing

    def next_point(self, fn):
        """Wrap a per-grid-point callback so each call closes one point."""
        @functools.wraps(fn)
        def advance(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.point += 1
        return advance


def wrapper_cost_ns(calls: int = 20000) -> float:
    """Time one traced call adds over a plain one, measured in ns.

    A no-op taking three arguments, like most traced calls, is called
    ``calls`` times plain and wrapped (under an open parent span, as traced
    calls are); the least of three mean differences is the cost a wrapper
    adds to each recorded span.
    """
    def noop(a, b, c):
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "calibrate.noop")
    outer = tracer.wrap(lambda f: [f(1, 2, 3) for _ in range(calls)],
                        "calibrate.outer")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        [noop(1, 2, 3) for _ in range(calls)]
        t1 = time.perf_counter_ns()
        outer(wrapped)
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def covered_ns(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the time its child spans cover.

    Children on several threads may overlap; the union of their intervals
    counts once.
    """
    children = defaultdict(list)
    for sid, parent, _, start, end, *_ in spans:
        children[parent].append((start, end))
    return {sid: (end - start) - covered_ns(children[sid], start, end)
            for sid, _, _, start, end, *_ in spans}


def layer_self_ns(spans) -> dict:
    """Layer -> summed self time of its spans, in ns."""
    own = self_times(spans)
    out = dict.fromkeys(LAYERS, 0)
    for sid, _, name, *_ in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + own[sid]
    return out


def by_name(spans) -> dict:
    """Span name -> list of durations in ns, in recording order."""
    out = defaultdict(list)
    for _, _, name, start, end, *_ in spans:
        out[name].append(end - start)
    return out


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= p <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    k = (len(xs) - 1) * p / 100.0
    i = int(k)
    if i + 1 >= len(xs):
        return float(xs[-1])
    return xs[i] + (xs[i + 1] - xs[i]) * (k - i)


def tail_percentile(n: int):
    """Highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    import statistics
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
