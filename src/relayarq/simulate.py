"""Monte Carlo outage engine for the direct and relay-assisted protocols.

Direct ARQ: each message gets ``retx`` total attempts, every attempt on a
fresh channel, both base stations always transmitting, so each user decodes
under the other cell's interference. A message is lost when every attempt
falls below the target rate.

Relay ARQ: one direct round, then a single retransmission round handled by
the shared relay. If one user failed, the relay beamforms that user's
message while nulling the other user, whose base station is meanwhile
serving fresh traffic (that fresh message is not scored); the failed user's
own base station stays silent. If both users failed, the base stations go
silent and the relay retransmits both messages at the max-min SINR design.
The relay is assumed to decode the first round perfectly. A zero relay
channel (``var_relay = 0``) reaches nobody, so the retransmission then
fails.

Both protocols see a base-station link only through its power gain, so
the engine draws BS links as Gamma(N) gains (``channel.draw_bs_channels``)
and keeps complex vectors only for the relay links the beams project.

Trials run in blocks of ``BLOCK``. Block b covers trials
[b BLOCK, min((b + 1) BLOCK, trials)) and draws all of their channels, as
whole arrays, from one counter-based substream keyed by (seed, context, b);
the verdicts then come from array operations over the block. Threads take
contiguous runs of blocks and their results are joined in block order
(direct) or reduced by integer sums (relay), so failure counts are
identical for any thread count. A trial's draws depend on its block and on
that block's length, so a run with more trials is not a prefix-extension
of a shorter one. Grid sweeps reuse the same seed at every point: common
random numbers across a curve, fresh draws within each trial.

The direct engine reuses those common draws instead of redrawing them. A
round succeeds when the margin ||h_ii||^2 - gamma ||h_ij||^2 reaches the
floor gamma sigma^2 / (P/N), and the margin does not depend on P or
sigma^2. So the engine keeps each message's best margin over its
attempts in a memo of one entry keyed by (seed, trials, N, var_direct,
var_cross, rate, retx): 16 bytes per trial. A point whose config differs
from the last one only in P or noise_var counts the margins below its
floor and draws nothing. Figure 1 therefore runs its
attempt budgets L in the outer loop and SNR in the inner one; its rows
are put back in SNR-major order, but its progress lines come L-major.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (CTX_DIRECT, CTX_RELAY, SystemConfig, draw_bs_channels,
                      draw_relay_channels, substream)
from .errors import ContractViolationError
from .outage import arq_outage, outage_interference_n3, outage_single_user
from .relay_multi import balanced_uplink
from .relay_single import optimal_gain

BLOCK = 256               # trials per random-number block

MODE_NONE = "none"
MODE_SINGLE = "single-user"
MODE_MULTI = "multiuser"
MODES = (MODE_NONE, MODE_SINGLE, MODE_MULTI)   # index = mode code


@dataclass(frozen=True)
class OutageEstimate:
    """Binomial outage estimate; the unit is one tracked message."""

    trials: int
    failures: int

    @property
    def p_hat(self) -> float:
        return self.failures / self.trials if self.trials else float("nan")

    @property
    def ci_halfwidth(self) -> float:
        """Three-sigma normal half width of the estimate."""
        if not self.trials:
            return float("nan")
        p = self.p_hat
        return 3.0 * math.sqrt(p * (1.0 - p) / self.trials)


@dataclass(frozen=True)
class RelayEstimate:
    """Relay-ARQ estimates, pooled over both users and per user."""

    pooled: OutageEstimate
    user1: OutageEstimate
    user2: OutageEstimate
    # always 0; kept because perfbench/spans.py:_tally_relay reads it
    aborted: int
    mode_counts: tuple        # (none, single-user, multiuser) trial counts


@dataclass(frozen=True)
class RelayVerdicts:
    """Per-trial outcomes of a batch of relay-ARQ trials."""

    round1: np.ndarray        # (n, 2) bool, user decoded the direct round
    mode: np.ndarray          # (n,) int, index into MODES
    delivered: np.ndarray     # (n, 2) bool, message delivered in the end


def _blocks(start: int, stop: int):
    """(block index, trial count) for each block of the trials
    [start, stop); ``start`` sits on a block boundary."""
    for lo in range(start, stop, BLOCK):
        yield lo // BLOCK, min(BLOCK, stop - lo)


# ---------------------------------------------------------------------------
# direct ARQ
# ---------------------------------------------------------------------------

def _direct_margin(e: np.ndarray, gamma: float) -> np.ndarray:
    """SNR-free margins ||h_ii||^2 - gamma ||h_ij||^2 of a batch of rounds,
    (L, 2), from the BS power gains e shaped (L, 2, 2), e[:, i, j] =
    ||h_ij||^2."""
    own = e.diagonal(axis1=1, axis2=2)               # (L, 2): e[:, i, i]
    cross = e[:, :, ::-1].diagonal(axis1=1, axis2=2)  # (L, 2): e[:, i, 1 - i]
    return own - gamma * cross


def _direct_floor(cfg: SystemConfig) -> float:
    """The margin a direct round needs: gamma sigma^2 / (P/N)."""
    return cfg.sinr_threshold * cfg.noise_var / (cfg.P / cfg.N)


def _direct_sinr_ok(cfg: SystemConfig, e: np.ndarray) -> np.ndarray:
    """Per-user success flags for a batch of rounds, from the BS power
    gains e shaped (L, 2, 2).

    SINR_i = (P/N) ||h_ii||^2 / (noise + (P/N) ||h_ij||^2); success means
    SINR >= gamma = 2^R - 1, i.e. the mutual information supports the
    rate. Dividing by P/N turns that into margin >= floor, which cannot
    overflow at any finite power.
    """
    return _direct_margin(e, cfg.sinr_threshold) >= _direct_floor(cfg)


def _margin_chunk(cfg: SystemConfig, seed: int, start: int, stop: int):
    """Best margin over the attempts of each (trial, user) of the trials
    [start, stop), float (stop - start, 2)."""
    gamma = cfg.sinr_threshold
    best = np.empty((stop - start, 2))
    for block, n in _blocks(start, stop):
        rng = substream(seed, CTX_DIRECT, block)
        # trial-major: trial k owns rounds [k retx, (k + 1) retx)
        e = draw_bs_channels(cfg, rng, rounds=n * cfg.retx)
        lo = block * BLOCK - start
        best[lo:lo + n] = _direct_margin(e, gamma).reshape(
            n, cfg.retx, 2).max(axis=1)
    return best


# (key, margins) of the last direct run: one entry, replaced whole and never
# written in place, so callers racing on it at worst repeat a draw
_memo = None


def _best_margins(cfg: SystemConfig, seed: int, trials: int,
                  threads: int) -> np.ndarray:
    """Best margin of every (trial, user), float (trials, 2), read-only.

    Memoised on exactly what they depend on, so a curve over P or
    noise_var draws once; the thread count only splits the work.
    """
    global _memo
    key = (seed, trials, cfg.N, cfg.var_direct, cfg.var_cross, cfg.rate,
           cfg.retx)
    memo = _memo
    if memo is None or memo[0] != key:
        parts = _run_chunks(_margin_chunk, cfg, seed, trials, threads)
        margins = parts[0] if len(parts) == 1 else np.concatenate(parts)
        margins.flags.writeable = False
        memo = _memo = (key, margins)
    return memo[1]


def clear_margin_memo():
    """Forget the memoised direct margins."""
    global _memo
    _memo = None


def simulate_direct(cfg: SystemConfig, trials: int, seed: int,
                    threads: int = 1) -> OutageEstimate:
    """Interference-limited direct ARQ outage, pooled over both users.

    A message is lost when its best margin falls below the floor.
    """
    margins = _best_margins(cfg, seed, trials, threads)
    fails = np.count_nonzero(margins < _direct_floor(cfg))
    return OutageEstimate(trials=2 * trials, failures=int(fails))


# ---------------------------------------------------------------------------
# relay ARQ
# ---------------------------------------------------------------------------

def relay_verdicts(cfg: SystemConfig, e1: np.ndarray, e2: np.ndarray,
                   g: np.ndarray) -> RelayVerdicts:
    """Outcomes of n relay-ARQ trials from their channels.

    e1, e2 are the round-1 and round-2 BS power gains, shaped (n, 2, 2);
    g holds the relay channels, shaped (n, 2, M). Both relay modes are
    evaluated for every trial and each trial keeps the one its round-1
    outcome selects.
    """
    gamma = cfg.sinr_threshold
    idx = np.arange(len(e1))
    ok = _direct_sinr_ok(cfg, e1)
    mode = np.where(ok.all(axis=1), 0, np.where(ok.any(axis=1), 1, 2))

    # one user failed: the relay zero-forces toward the other user o while
    # BS o serves fresh traffic. A failure needs gamma > 0, so a zero g_f
    # (no gain) fails here too.
    f = np.where(ok[:, 0], 1, 0)
    o = 1 - f
    gain = optimal_gain(g[idx, o], g[idx, f], cfg.Pr_single)
    interf = (cfg.P / cfg.N) * e2[idx, f, o]
    single_ok = gain / (cfg.noise_var + interf) >= gamma

    # both failed: both messages ride the relay at the balanced SINR
    _, _, t = balanced_uplink(g[:, 0], g[:, 1], cfg.Pr_multi, cfg.noise_var)
    multi_ok = t >= gamma

    rescued = np.where(mode == 1, single_ok, (mode == 2) & multi_ok)
    return RelayVerdicts(round1=ok, mode=mode,
                         delivered=ok | rescued[:, None])


def relay_block(cfg: SystemConfig, seed: int, block: int,
                n: int = BLOCK) -> RelayVerdicts:
    """Draw and judge the ``n`` trials of one relay block."""
    rng = substream(seed, CTX_RELAY, block)
    e1 = draw_bs_channels(cfg, rng, rounds=n)
    e2 = draw_bs_channels(cfg, rng, rounds=n)
    g = draw_relay_channels(cfg, rng, rounds=n)
    return relay_verdicts(cfg, e1, e2, g)


def _relay_chunk(cfg: SystemConfig, seed: int, start: int, stop: int):
    # (fail_1, fail_2, n_none, n_single, n_multi)
    counts = np.zeros(5, dtype=np.int64)
    for block, n in _blocks(start, stop):
        out = relay_block(cfg, seed, block, n)
        counts[:2] += np.count_nonzero(~out.delivered, axis=0)
        counts[2:] += np.bincount(out.mode, minlength=3)
    return counts


def simulate_relay(cfg: SystemConfig, trials: int, seed: int,
                   threads: int = 1) -> RelayEstimate:
    """Relay-assisted ARQ outage: one direct round plus one relay round."""
    if cfg.M < 2:
        raise ContractViolationError("relay needs at least 2 antennas")
    fail_1, fail_2, *modes = map(int, sum(_run_chunks(_relay_chunk, cfg,
                                                      seed, trials, threads)))
    return RelayEstimate(
        pooled=OutageEstimate(trials=2 * trials, failures=fail_1 + fail_2),
        user1=OutageEstimate(trials=trials, failures=fail_1),
        user2=OutageEstimate(trials=trials, failures=fail_2),
        aborted=0, mode_counts=tuple(modes))


def _run_chunks(worker, cfg, seed, trials, threads):
    """Split the blocks of [0, trials) into contiguous runs, one per thread,
    and return the workers' results in block order.

    Each worker gets the trial range of its run, starting on a block
    boundary.
    """
    if trials < 1:
        raise ContractViolationError("trials must be at least 1")
    threads = max(1, int(threads))
    blocks = -(-trials // BLOCK)
    base, extra = divmod(blocks, threads)
    bounds = []
    lo = 0
    for c in range(threads):
        hi = lo + base + (1 if c < extra else 0)
        if hi > lo:
            bounds.append((lo * BLOCK, min(hi * BLOCK, trials)))
        lo = hi
    if len(bounds) == 1:
        return [worker(cfg, seed, *bounds[0])]
    # more runs than cores queue up instead of starting more threads
    workers = min(len(bounds), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(worker, cfg, seed, lo, hi) for lo, hi in bounds]
        return [f.result() for f in futs]


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

FIG1_SNR_DB = tuple(range(0, 41, 5))
FIG1_ATTEMPTS = (1, 2, 3, 10)
FIG2_RATES = (2, 3, 4, 5, 6, 7, 8)
FIG2_SNR_DB = 40.0
FIG3_M = (2, 3, 4, 5, 6)
FIG3_SNR_DB = 20.0
FIG3_RATE = 6.0

# interference-limited example system (direct ARQ figures)
_FIG1_BASE = dict(N=3, M=3, noise_var=1e-3, var_direct=2.0, var_cross=1.0,
                  var_relay=4.0, rate=2.0)
# relay study system
_FIG23_BASE = dict(N=3, M=3, noise_var=1.0, var_direct=2.0, var_cross=1.0,
                   var_relay=4.0, rate=6.0)


def _cfg(base: dict, snr_db: float, **kw) -> SystemConfig:
    return SystemConfig.at_snr(snr_db, **dict(base, **kw))


def run_experiment(preset: str, trials: int = 10000, seed: int = 0,
                   threads: int = 1, progress=None):
    """Produce one figure's data table as (columns, rows).

    fig1: direct ARQ vs SNR for several attempt budgets, analytic next to
    Monte Carlo. fig2: single-user bound, direct ARQ, and relay ARQ over a
    rate sweep at 40 dB. fig3: relay ARQ over relay array sizes at 20 dB,
    rate 6, with the single-user bound as reference. ``progress`` is an
    optional callable fed one status string per grid point.
    """
    note = progress if progress is not None else (lambda msg: None)
    if preset == "fig1":
        rows = []
        # L outer, so each curve draws its margins once
        for attempts in FIG1_ATTEMPTS:
            for snr in FIG1_SNR_DB:
                cfg = _cfg(_FIG1_BASE, snr, retx=attempts)
                analytic = arq_outage(outage_interference_n3(cfg), attempts)
                est = simulate_direct(cfg, trials, seed, threads)
                rows.append((float(snr), attempts, analytic, est.p_hat,
                             est.ci_halfwidth))
                note(f"fig1 L={attempts} snr={snr}")
        rows.sort(key=lambda row: row[0])    # stable: SNR-major, L minor
        return ("SNR_dB", "L", "analytic", "mc", "ci"), rows

    if preset == "fig2":
        rows = []
        for rate in FIG2_RATES:
            cfg = _cfg(_FIG23_BASE, FIG2_SNR_DB, rate=float(rate), retx=2)
            bound = arq_outage(outage_single_user(cfg), 2)
            rows.append((float(rate), "single-user", bound, 0.0))
            direct = simulate_direct(cfg, trials, seed, threads)
            rows.append((float(rate), "direct-arq", direct.p_hat,
                         direct.ci_halfwidth))
            relay = simulate_relay(cfg, trials, seed, threads)
            rows.append((float(rate), "relay-arq", relay.pooled.p_hat,
                         relay.pooled.ci_halfwidth))
            note(f"fig2 R={rate}")
        return ("R", "series", "p", "ci"), rows

    if preset == "fig3":
        rows = []
        for m in FIG3_M:
            cfg = _cfg(_FIG23_BASE, FIG3_SNR_DB, rate=FIG3_RATE, retx=2, M=m)
            bound = arq_outage(outage_single_user(cfg), 2)
            rows.append((float(m), "single-user", bound, 0.0))
            relay = simulate_relay(cfg, trials, seed, threads)
            rows.append((float(m), "relay-arq", relay.pooled.p_hat,
                         relay.pooled.ci_halfwidth))
            note(f"fig3 M={m}")
        return ("M", "series", "p", "ci"), rows

    raise ContractViolationError(f"unknown preset: {preset!r}")
