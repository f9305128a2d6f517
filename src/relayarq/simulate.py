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
silent and the relay retransmits both messages at the max-min SINR design;
round-2 base-station channels are still drawn so both relay modes consume
the trial's random stream the same way. The relay is assumed to decode the
first round perfectly. A zero relay channel (``var_relay = 0``) reaches
nobody, so the retransmission then fails.

Every trial owns a counter-based substream keyed by (seed, context, trial
index), and chunk results are reduced by integer sums, so failure counts
are identical for any thread count. Grid sweeps reuse the same seed at
every point: common random numbers across a curve, fresh draws within each
trial.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (CTX_DIRECT, CTX_RELAY, SystemConfig, draw_bs_channels,
                      draw_relay_channels, substream)
from .errors import ContractViolationError
from .outage import arq_outage, outage_interference_n3, outage_single_user
from .relay_multi import max_min_sinr
from .relay_single import beamform_gain, solve_single_user_beamformer

MODE_NONE = "none"
MODE_SINGLE = "single-user"
MODE_MULTI = "multiuser"


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
class TrialOutcome:
    """What happened to the two messages of one relay-ARQ trial."""

    user1_failed_round1: bool
    user2_failed_round1: bool
    mode: str
    user1_final: bool         # True = message delivered
    user2_final: bool


@dataclass(frozen=True)
class RelayEstimate:
    """Relay-ARQ estimates, pooled over both users and per user."""

    pooled: OutageEstimate
    user1: OutageEstimate
    user2: OutageEstimate
    aborted: int              # unsolved trials: always 0 (closed forms)
    mode_counts: tuple        # (none, single-user, multiuser) trial counts


# ---------------------------------------------------------------------------
# direct ARQ
# ---------------------------------------------------------------------------

def _direct_sinr_ok(cfg: SystemConfig, h: np.ndarray) -> np.ndarray:
    """Per-user success flags for a batch of rounds, h shaped (L, 2, 2, N).

    SINR_i = (P/N) ||h_ii||^2 / (noise + (P/N) ||h_ij||^2); success means
    SINR >= 2^R - 1, i.e. the mutual information supports the rate.
    """
    p_ant = cfg.P / cfg.N
    e = np.sum(np.abs(h) ** 2, axis=-1)           # (L, 2, 2) link energies
    own = np.stack((e[:, 0, 0], e[:, 1, 1]), axis=1)
    cross = np.stack((e[:, 0, 1], e[:, 1, 0]), axis=1)
    gamma = cfg.sinr_threshold
    return p_ant * own >= gamma * (cfg.noise_var + p_ant * cross)


def _direct_chunk(cfg: SystemConfig, seed: int, start: int, stop: int):
    fails = np.zeros(2, dtype=np.int64)
    for trial in range(start, stop):
        rng = substream(seed, CTX_DIRECT, trial)
        h = draw_bs_channels(cfg, rng, rounds=cfg.retx)
        ok = _direct_sinr_ok(cfg, h)
        fails += ~ok.any(axis=0)
    return fails


def simulate_direct(cfg: SystemConfig, trials: int, seed: int,
                    threads: int = 1) -> OutageEstimate:
    """Interference-limited direct ARQ outage, pooled over both users."""
    if trials < 1:
        raise ContractViolationError("trials must be at least 1")
    fails = np.zeros(2, dtype=np.int64)
    for part in _run_chunks(_direct_chunk, cfg, seed, trials, threads):
        fails += part
    return OutageEstimate(trials=2 * trials, failures=int(fails.sum()))


# ---------------------------------------------------------------------------
# relay ARQ
# ---------------------------------------------------------------------------

def run_relay_trial(cfg: SystemConfig, seed: int, trial: int) -> TrialOutcome:
    """One complete relay-ARQ trial."""
    rng = substream(seed, CTX_RELAY, trial)
    gamma = cfg.sinr_threshold
    h1 = draw_bs_channels(cfg, rng)
    ok = _direct_sinr_ok(cfg, h1[None])[0]
    if ok.all():
        return TrialOutcome(False, False, MODE_NONE, True, True)

    h2 = draw_bs_channels(cfg, rng)
    g = draw_relay_channels(cfg, rng)
    if not ok.any():
        # both messages ride the relay; base stations stay silent
        sol = max_min_sinr(g[0], g[1], cfg.Pr_multi, noise_var=cfg.noise_var)
        return TrialOutcome(True, True, MODE_MULTI,
                            sol.sinr1 >= gamma, sol.sinr2 >= gamma)

    f = 0 if not ok[0] else 1             # the one failed user
    o = 1 - f
    final = [True, True]
    final[f] = False
    if g[f].any():
        bf = solve_single_user_beamformer(g[o], g[f], cfg.Pr_single)
        p_ant = cfg.P / cfg.N
        interf = p_ant * np.sum(np.abs(h2[f, o]) ** 2)
        sinr_f = beamform_gain(bf.matrix, g[f]) / (cfg.noise_var + interf)
        final[f] = bool(sinr_f >= gamma)
    return TrialOutcome(f == 0, f == 1, MODE_SINGLE, final[0], final[1])


def _relay_chunk(cfg: SystemConfig, seed: int, start: int, stop: int):
    # fails per user, mode counts (none, single, multi)
    fails = np.zeros(2, dtype=np.int64)
    modes = np.zeros(3, dtype=np.int64)
    for trial in range(start, stop):
        out = run_relay_trial(cfg, seed, trial)
        modes[(MODE_NONE, MODE_SINGLE, MODE_MULTI).index(out.mode)] += 1
        fails[0] += not out.user1_final
        fails[1] += not out.user2_final
    return fails, modes


def simulate_relay(cfg: SystemConfig, trials: int, seed: int,
                   threads: int = 1) -> RelayEstimate:
    """Relay-assisted ARQ outage: one direct round plus one relay round."""
    if trials < 1:
        raise ContractViolationError("trials must be at least 1")
    if cfg.M < 2:
        raise ContractViolationError("relay needs at least 2 antennas")
    fails = np.zeros(2, dtype=np.int64)
    modes = np.zeros(3, dtype=np.int64)
    for part_fails, part_modes in _run_chunks(_relay_chunk, cfg, seed,
                                              trials, threads):
        fails += part_fails
        modes += part_modes
    return RelayEstimate(
        pooled=OutageEstimate(trials=2 * trials, failures=int(fails.sum())),
        user1=OutageEstimate(trials=trials, failures=int(fails[0])),
        user2=OutageEstimate(trials=trials, failures=int(fails[1])),
        aborted=0, mode_counts=tuple(int(x) for x in modes))


def _run_chunks(worker, cfg, seed, trials, threads):
    """Partition [0, trials) into contiguous chunks, one per thread."""
    threads = max(1, int(threads))
    base, extra = divmod(trials, threads)
    bounds = []
    lo = 0
    for c in range(threads):
        hi = lo + base + (1 if c < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    if len(bounds) == 1:
        return [worker(cfg, seed, *bounds[0])]
    with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
        futs = [pool.submit(worker, cfg, seed, lo, hi) for lo, hi in bounds]
        return [f.result() for f in futs]


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentTable:
    columns: tuple
    rows: list


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
    merged = dict(base, **kw)
    p = merged["noise_var"] * 10.0 ** (snr_db / 10.0)
    return SystemConfig(P=p, **merged)


def run_experiment(preset: str, trials: int = 10000, seed: int = 0,
                   threads: int = 1, progress=None) -> ExperimentTable:
    """Produce one figure's data table.

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
        return ExperimentTable(("SNR_dB", "L", "analytic", "mc", "ci"), rows)

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
        return ExperimentTable(("R", "series", "p", "ci"), rows)

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
        return ExperimentTable(("M", "series", "p", "ci"), rows)

    raise ContractViolationError(f"unknown preset: {preset!r}")
