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
The relay is assumed to decode the first round perfectly. It spends P on
one user and 2P on two, and its power enters only times var_relay, so a
relay-power study is a var_relay study; the design functions take any
budget. A zero relay channel (``var_relay = 0``) reaches nobody, so the
retransmission then fails.

The engine draws BS links as unit Gamma(N, 1) gains and a relay trial
as its row of unit Gamma statistics (``channel``), never a channel
vector. No draw reads a variance: only the verdicts here do, as ratios
formed by ``linalg.ratio``, where a 0 or inf is the right verdict.

Randomness is keyed by what defines a round: attempt a of every direct
trial comes from the substream (seed, CTX_DIRECT, a), drawn in passes of
at most ``PASS_ROWS`` rounds, and every relay trial of a run from (seed,
CTX_RELAY, 0), in one draw judged ``PASS_ROWS`` trials at a time. A pass
only bounds an engine's temporaries, so no output depends on its length,
and both engines are prefix-stable: a run with more trials holds a
shorter run's rows in its first rows.

Grid sweeps reuse the same seed at every point: common random numbers
across a curve, fresh draws within each trial. Attempt budgets share
draws too: attempt a of a message is the same round under any budget
L > a, so a budget of L attempts sees the rounds of every smaller budget
plus its own, and a message lost under L is lost under every smaller
budget.

Both engines reuse those common draws instead of redrawing them. Each
keeps the per-trial floats of its last run, keyed by exactly what they
depend on; a point whose key matches draws nothing and only judges. One
memory rule holds: an engine holds one memo, and a miss frees it before
the next is allocated, so a CLI run holds at most 2 + STATS floats per
trial (``MAX_TRIALS``) besides one pass of temporaries. ``clear_memos``
forgets both.

* Direct: a round succeeds when the unit margin own - kappa cross
  reaches the floor (``outage.direct_test``); the margin does not depend
  on P, sigma^2 or the variances' common scale. The memo holds each
  message's best margin over its attempts, 16 bytes per trial, keyed by
  (seed, trials, N, kappa), with the number of attempts it covers. A
  larger budget draws only its further attempts and keeps the max of
  their margins and the memo's; a smaller one draws again from attempt
  0. Figure 1 therefore runs its budgets L in rising order in the outer
  loop, so its four curves draw 10 attempts per trial between them; its
  rows come SNR-major, its progress lines L-major.
* Relay: a trial is judged from STATS = 9 unit-variance floats, 72
  bytes, none of which depends on the rate, the powers, the noise or the
  variances: the 4 round-1 BS gains, the 2 round-2 cross gains
  e2[f, 1 - f] a failed user f would see, and the relay links' unit A,
  B and C (``channel.draw_relay_stats``). The memo is keyed by (seed,
  trials, N, M), so figure 2's rate sweep, any SNR grid or a sweep over
  the variances draws once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (CTX_DIRECT, CTX_RELAY, STATS, SystemConfig, _A, _B,
                      _C, _E1, _Y, draw_bs_channels, draw_relay_stats,
                      substream, whole)
from .errors import ContractViolationError
from .linalg import ratio
from .outage import (arq_outage, direct_test, outage_interference_n3,
                     outage_single_user)
from .relay_multi import balanced_sinr

PASS_ROWS = 4096          # direct rounds drawn, relay trials judged per pass

MODES = ("none", "single-user", "multiuser")   # index = users served


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
    mode_counts: tuple        # (none, single-user, multiuser) trial counts
    # always 0, as no relay trial can fail to solve; a class constant,
    # not a field, kept because perfbench/spans.py:_tally_relay reads it
    aborted = 0


@dataclass(frozen=True)
class RelayVerdicts:
    """Per-trial outcomes of a batch of relay-ARQ trials."""

    round1: np.ndarray        # (n, 2) bool, user decoded the direct round
    mode: np.ndarray          # (n,) int, users the relay serves; MODES index
    delivered: np.ndarray     # (n, 2) bool, message delivered in the end


# ---------------------------------------------------------------------------
# direct ARQ
# ---------------------------------------------------------------------------

def _direct_margin(e: np.ndarray, kappa: float) -> np.ndarray:
    """Margins own - kappa cross, (L, 2), of unit BS gains e, one round
    per row, as (L, 2, 2) or flat (L, 4) with e[:, 2 i + j] from BS j to
    user i; -inf, a loss, where they overflow."""
    e = e.reshape(-1, 4)
    return e[:, 0::3] - kappa * e[:, 1:3]


# engine -> its last run's memo entry, taken out while a point runs and
# put back whole; a memo's array is never written once stored
_memos = {}
# the most trials whose two memos, 2 direct margins and STATS relay floats
# of 8 B each per trial (the relay draw writes its rows in place), stay
# under 1 GiB. A miss frees its engine's memo before drawing the next, so
# no run holds more. Extending the direct memo to a larger attempt budget
# copies it, as a returned array never changes: 16 B per trial more for
# that copy, which the CLI makes only in figure 1, with no relay memo held
MAX_TRIALS = 2 ** 30 // (8 * (2 + STATS))


def clear_memos():
    """Forget the memoised direct margins and relay statistics."""
    _memos.clear()


def _best_margins(cfg: SystemConfig, seed: int, trials: int,
                  kappa: float) -> np.ndarray:
    """Best margin own - kappa cross over the attempts [0, cfg.retx) of
    every (trial, user), float (trials, 2), read-only, memoised as the
    module docstring's Direct item sets out; a larger budget extends a
    fresh copy of the memo. Attempt a of every trial comes from one
    substream.
    """
    trials = whole(trials, "trials")
    key = (seed, trials, cfg.N, kappa)
    old, first, rows = _memos.pop("direct", (None, 0, None))
    if old != key or first > cfg.retx:
        first, rows = 0, None             # frees the old memo
    if first < cfg.retx:
        rows = rows.copy() if first else np.full((trials, 2), -np.inf)
        with np.errstate(over="ignore"):
            for attempt in range(first, cfg.retx):
                rng = substream(seed, CTX_DIRECT, attempt)
                for lo in range(0, trials, PASS_ROWS):
                    best = rows[lo:lo + PASS_ROWS]
                    margin = _direct_margin(
                        draw_bs_channels(cfg, rng, rounds=len(best)), kappa)
                    np.maximum(best, margin, out=best)
        rows.flags.writeable = False
    _memos["direct"] = (key, cfg.retx, rows)
    return rows


def simulate_direct(cfg: SystemConfig, trials: int,
                    seed: int) -> OutageEstimate:
    """Interference-limited direct ARQ outage, pooled over both users.

    A message is lost when its best margin falls below the floor.
    ``trials`` is a whole number of at least 1: a whole float runs as its
    int and True as 1 trial; anything else raises ContractViolationError.
    """
    kappa, floor = direct_test(cfg)
    margins = _best_margins(cfg, seed, trials, kappa)
    fails = sum(np.count_nonzero(margins[lo:lo + PASS_ROWS] < floor)
                for lo in range(0, len(margins), PASS_ROWS))
    return OutageEstimate(trials=2 * len(margins), failures=int(fails))


# ---------------------------------------------------------------------------
# relay ARQ
# ---------------------------------------------------------------------------

def judge_relay(cfg: SystemConfig, stats: np.ndarray) -> RelayVerdicts:
    """Outcomes of the relay-ARQ trials whose unit-variance statistics
    are ``stats``, float (n, STATS), as ``channel.draw_relay_stats``
    draws them.

    A user's message is delivered when the user decoded round 1 or, if
    not, when the relay design its partner's round-1 outcome selects
    rescues it: the zero-forcing beam if the partner decoded, the
    max-min design if the partner failed too. Both rescue tests are
    evaluated for every trial and user. Every test is divided through by
    the noise, by P or by var_relay, so only ratios of the powers, the
    noise and the variances enter. A zero relay channel rescues nobody.
    """
    gamma = cfg.sinr_threshold
    kappa, floor = direct_test(cfg)
    # a margin that overflows to inf is a loss
    with np.errstate(over="ignore", invalid="ignore"):
        ok = _direct_margin(stats[:, _E1], kappa) >= floor
        a, b, c = stats[:, _A], stats[:, _B], stats[:, _C]
        n2 = b + c                        # ||g2||^2 / var_relay
        beta = np.divide(b, n2, out=np.ones_like(b), where=n2 > 0)

        # user f alone failed: the relay zero-forces toward its partner
        # while the partner's BS serves fresh traffic, both at power P.
        # f's unit gain is (A B / (B + C), B)[f], or A for f = 0 where
        # g2 = 0 leaves nothing to null, against its round-2 cross gain;
        # the test is divided by P var_relay. A failure needs gamma > 0,
        # so a zero g_f (gain 0) fails here too.
        single = np.zeros_like(ok)
        if cfg.var_relay:
            kappa = ratio((gamma, cfg.var_cross), (cfg.N, cfg.var_relay))
            floor = ratio((gamma, cfg.noise_var), (cfg.P, cfg.var_relay))
            x = np.stack((a * beta, b), axis=1)
            single = x - kappa * stats[:, _Y:_Y + 2] >= floor

        # both failed: both messages ride the relay at the balanced SINR
        # t of u = 2P / (noise / ||g1||^2 + noise / ||g2||^2) and beta.
        # A zero channel leaves t at 0, or NaN where 0 / 0 or inf * 0 forms
        # u; neither rescues anyone at a positive rate
        rho = ratio((cfg.Pr_multi, cfg.var_relay), (cfg.noise_var,))
        u = rho * (a * (n2 / (a + n2)))
        multi = balanced_sinr(u, u * beta)[2] >= gamma

    # mode counts the users the relay serves
    return RelayVerdicts(
        round1=ok, mode=(~ok).sum(axis=1),
        delivered=ok | np.where(ok[:, ::-1], single, multi[:, None]))


def _relay_stats(cfg: SystemConfig, seed: int, trials: int) -> np.ndarray:
    """Statistics of every relay trial, float (trials, STATS), read-only,
    all from one substream, memoised on (seed, trials, N, M)."""
    trials = whole(trials, "trials")
    key = (seed, trials, cfg.N, cfg.M)
    old, rows = _memos.pop("relay", (None, None))
    if old != key:
        rows = None                       # frees the old memo
        rows = draw_relay_stats(cfg, substream(seed, CTX_RELAY, 0),
                                np.empty((trials, STATS)))
        rows.flags.writeable = False
    _memos["relay"] = (key, rows)
    return rows


def simulate_relay(cfg: SystemConfig, trials: int,
                   seed: int) -> RelayEstimate:
    """Relay-assisted ARQ outage: one direct round plus one relay round.

    The trials are judged PASS_ROWS at a time from their memoised
    statistics, so a sweep over all but (seed, trials, N, M) draws once.
    ``trials`` is read as ``simulate_direct`` reads it.
    """
    if cfg.M < 2:
        raise ContractViolationError("relay needs at least 2 antennas")
    stats = _relay_stats(cfg, seed, trials)
    trials = len(stats)
    # (fail_1, fail_2, n_none, n_single, n_multi)
    counts = np.zeros(5, dtype=np.int64)
    for lo in range(0, trials, PASS_ROWS):
        out = judge_relay(cfg, stats[lo:lo + PASS_ROWS])
        counts[:2] += np.count_nonzero(~out.delivered, axis=0)
        counts[2:] += np.bincount(out.mode, minlength=3)
    fail_1, fail_2, *modes = map(int, counts)
    return RelayEstimate(
        pooled=OutageEstimate(trials=2 * trials, failures=fail_1 + fail_2),
        user1=OutageEstimate(trials=trials, failures=fail_1),
        user2=OutageEstimate(trials=trials, failures=fail_2),
        mode_counts=tuple(modes))


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
                   progress=None):
    """Produce one figure's data table as (columns, rows).

    fig1: direct ARQ vs SNR for several attempt budgets, analytic next to
    Monte Carlo. fig2: single-user bound, direct ARQ, and relay ARQ over a
    rate sweep at 40 dB. fig3: relay ARQ over relay array sizes at 20 dB,
    rate 6, with the single-user bound as reference. ``trials`` is as in
    ``simulate_direct``; ``progress``, if given, is fed one status string
    per grid point.
    """
    note = progress if progress is not None else (lambda msg: None)
    if preset == "fig1":
        rows = []
        # the one-attempt law does not depend on L: one per SNR
        p_int = {snr: outage_interference_n3(_cfg(_FIG1_BASE, snr))
                 for snr in FIG1_SNR_DB}
        # L outer and rising, so each curve draws only the attempts the
        # one before it lacks
        for attempts in FIG1_ATTEMPTS:
            for snr in FIG1_SNR_DB:
                cfg = _cfg(_FIG1_BASE, snr, retx=attempts)
                analytic = arq_outage(p_int[snr], attempts)
                est = simulate_direct(cfg, trials, seed)
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
            direct = simulate_direct(cfg, trials, seed)
            rows.append((float(rate), "direct-arq", direct.p_hat,
                         direct.ci_halfwidth))
            relay = simulate_relay(cfg, trials, seed)
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
            relay = simulate_relay(cfg, trials, seed)
            rows.append((float(m), "relay-arq", relay.pooled.p_hat,
                         relay.pooled.ci_halfwidth))
            note(f"fig3 M={m}")
        return ("M", "series", "p", "ci"), rows

    raise ContractViolationError(f"unknown preset: {preset!r}")
