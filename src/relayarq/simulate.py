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

Trials run in blocks of ``BLOCK``. Block b covers trials
[b BLOCK, min((b + 1) BLOCK, trials)) and draws all of their channels, as
whole arrays, from one counter-based substream keyed by (seed, context, b);
the verdicts then come from array operations over the block. Threads take
contiguous runs of blocks and their results are reduced by integer sums,
so failure counts are identical for any thread count. A trial's draws
depend on its block and on that block's length, so a run with more trials
is not a prefix-extension of a shorter one. Grid sweeps reuse the same seed
at every point: common random numbers across a curve, fresh draws within
each trial.
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

def _direct_sinr_ok(cfg: SystemConfig, h: np.ndarray) -> np.ndarray:
    """Per-user success flags for a batch of rounds, h shaped (L, 2, 2, N).

    SINR_i = (P/N) ||h_ii||^2 / (noise + (P/N) ||h_ij||^2); success means
    SINR >= 2^R - 1, i.e. the mutual information supports the rate.
    """
    p_ant = cfg.P / cfg.N
    e = np.sum(h.real ** 2 + h.imag ** 2, axis=-1)   # (L, 2, 2) link energies
    own = np.stack((e[:, 0, 0], e[:, 1, 1]), axis=1)
    cross = np.stack((e[:, 0, 1], e[:, 1, 0]), axis=1)
    gamma = cfg.sinr_threshold
    return p_ant * own >= gamma * (cfg.noise_var + p_ant * cross)


def _direct_chunk(cfg: SystemConfig, seed: int, start: int, stop: int):
    fails = np.zeros(2, dtype=np.int64)
    for block, n in _blocks(start, stop):
        rng = substream(seed, CTX_DIRECT, block)
        # trial-major: trial k owns rounds [k retx, (k + 1) retx)
        h = draw_bs_channels(cfg, rng, rounds=n * cfg.retx)
        ok = _direct_sinr_ok(cfg, h).reshape(n, cfg.retx, 2)
        fails += np.count_nonzero(~ok.any(axis=1), axis=0)
    return fails


def simulate_direct(cfg: SystemConfig, trials: int, seed: int,
                    threads: int = 1) -> OutageEstimate:
    """Interference-limited direct ARQ outage, pooled over both users."""
    fails = _run_chunks(_direct_chunk, cfg, seed, trials, threads)
    return OutageEstimate(trials=2 * trials, failures=int(fails.sum()))


# ---------------------------------------------------------------------------
# relay ARQ
# ---------------------------------------------------------------------------

def relay_verdicts(cfg: SystemConfig, h1: np.ndarray, h2: np.ndarray,
                   g: np.ndarray) -> RelayVerdicts:
    """Outcomes of n relay-ARQ trials from their channels.

    h1, h2 are the round-1 and round-2 BS channels, shaped (n, 2, 2, N);
    g holds the relay channels, shaped (n, 2, M). Both relay modes are
    evaluated for every trial and each trial keeps the one its round-1
    outcome selects.
    """
    gamma = cfg.sinr_threshold
    idx = np.arange(len(h1))
    ok = _direct_sinr_ok(cfg, h1)
    mode = np.where(ok.all(axis=1), 0, np.where(ok.any(axis=1), 1, 2))

    # one user failed: the relay zero-forces toward the other user o while
    # BS o serves fresh traffic. A failure needs gamma > 0, so a zero g_f
    # (no gain) fails here too.
    f = np.where(ok[:, 0], 1, 0)
    o = 1 - f
    gain = optimal_gain(g[idx, o], g[idx, f], cfg.Pr_single)
    interf = (cfg.P / cfg.N) * np.sum(np.abs(h2[idx, f, o]) ** 2, axis=-1)
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
    h1 = draw_bs_channels(cfg, rng, rounds=n)
    h2 = draw_bs_channels(cfg, rng, rounds=n)
    g = draw_relay_channels(cfg, rng, rounds=n)
    return relay_verdicts(cfg, h1, h2, g)


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
    fail_1, fail_2, *modes = map(int, _run_chunks(_relay_chunk, cfg, seed,
                                                  trials, threads))
    return RelayEstimate(
        pooled=OutageEstimate(trials=2 * trials, failures=fail_1 + fail_2),
        user1=OutageEstimate(trials=trials, failures=fail_1),
        user2=OutageEstimate(trials=trials, failures=fail_2),
        aborted=0, mode_counts=tuple(modes))


def _run_chunks(worker, cfg, seed, trials, threads):
    """Split the blocks of [0, trials) into contiguous runs, one per thread,
    and return the sum of the count vectors the workers return.

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
        return worker(cfg, seed, *bounds[0])
    # more runs than cores queue up instead of starting more threads
    workers = min(len(bounds), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(worker, cfg, seed, lo, hi) for lo, hi in bounds]
        return sum(f.result() for f in futs)


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
        for snr in FIG1_SNR_DB:
            for attempts in FIG1_ATTEMPTS:
                cfg = _cfg(_FIG1_BASE, snr, retx=attempts)
                analytic = arq_outage(outage_interference_n3(cfg), attempts)
                est = simulate_direct(cfg, trials, seed, threads)
                rows.append((float(snr), attempts, analytic, est.p_hat,
                             est.ci_halfwidth))
                note(f"fig1 snr={snr} L={attempts}")
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
