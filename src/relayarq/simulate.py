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
vector. No draw reads a variance: ``draw_bs_channels`` takes only N and
``draw_relay_stats`` only M, besides the stream and the count, and only
the verdicts here read the variances, as the ratios of
``outage.UnitSystem``, formed once per point, where a 0 or inf is the
right verdict.

Randomness is keyed by what defines a round: attempt a of every direct
trial comes from the substream (seed, CTX_DIRECT, a), and the relay links
of every relay trial of a run from (seed, CTX_RELAY, 0). Both engines
share the BS rounds of attempts 0 and 1, each drawn whole the first time
either engine reads it: the relay's round 1 is direct attempt 0, and its
round 2 is attempt 1, of which a failed user reads only its cross gain.
So a relay trial is lost only where direct attempt 0 failed, trial by
trial. Later attempts are drawn in passes of at most ``PASS_ROWS``
rounds, and the engines judge ``PASS_ROWS`` trials at a time. A pass
only bounds an engine's temporaries, so no output depends on its length,
and both engines are prefix-stable: a run with more trials holds a
shorter run's rows in its first rows.

Grid sweeps reuse the same seed at every point: common random numbers
across a curve, fresh draws within each trial. Attempt budgets share
draws too: attempt a of a message is the same round under any budget
L > a, so a budget of L attempts sees the rounds of every smaller budget
plus its own, and a message lost under L is lost under every smaller
budget.

Both engines reuse those common draws instead of redrawing them. A run
owns its memos: a plain dict that the caller makes once and passes as
``memos`` to every point of its sweep, as ``run_experiment`` and the CLI
do. They keep per-trial floats, each keyed by exactly what its floats
depend on, so a point whose keys match draws nothing and only judges:
one memo per shared draw, the two rounds and the relay statistics, and
one for the direct margins. ``_drawn`` keeps each shared draw under its
substream's (context, index), keyed by (seed, trials, order), the
draw's other arguments. A call given no dict uses a fresh one, so it
draws afresh and keeps nothing once it returns. One memory rule holds:
a memo is held once, a miss frees it before the next is allocated, and
a larger budget extends the direct margins in place, so a CLI run holds
at most 8 + 2 + STATS floats per trial (``MAX_TRIALS``) besides one
pass of temporaries, and frees them all when it ends.

* Rounds: the memo (CTX_DIRECT, a) of each shared attempt a < ROUNDS,
  its unit BS gains, 32 bytes per trial, keyed by (seed, trials, N). No
  rate, power, noise or variance enters, so every point of figures 2
  and 3 reads the same two rounds, and a one-attempt direct run, which
  reads only attempt 0, holds 32 + 16 = 48 bytes per trial.

* Direct: a round succeeds when the unit margin own - kappa cross
  reaches the floor (``outage.UnitSystem``); the margin does not depend
  on P, sigma^2 or the variances' common scale. The memo "direct" holds
  each message's best margin over its attempts, 16 bytes per trial,
  keyed by (seed, trials, N, kappa), with the number of attempts it
  covers; attempts 0 and 1 come from their round memos. A larger budget
  draws only its further attempts and raises the memo's margins to
  their max in place; a smaller one starts again from attempt 0. It is
  the one memo the engine writes, so a point takes it out of the dict
  until it has counted its failures. Figure 1 therefore runs its
  budgets L in rising order in the outer loop, so its four curves draw
  10 attempts per trial between them; its rows come SNR-major, its
  progress lines L-major.
* Relay: a trial is judged from its two rounds and STATS = 3
  unit-variance floats, 24 bytes, the relay links' A, B and C
  (``channel.draw_relay_stats``), which depend on nothing but M. Their
  memo (CTX_RELAY, 0) is keyed by (seed, trials, M), so figure 2's rate
  sweep, any SNR grid or a sweep over the variances draws once, and
  figure 3 draws once per M.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (CTX_DIRECT, CTX_RELAY, STATS, ContractViolationError,
                      SystemConfig, draw_bs_channels, draw_relay_stats,
                      substream, whole)
from .outage import (UnitSystem, arq_outage, outage_interference_n3,
                     outage_single_user)
from .relay_multi import balanced_sinr

PASS_ROWS = 4096          # direct rounds drawn, relay trials judged per pass


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
        p = self.p_hat                    # nan where there are no trials
        return 3.0 * math.sqrt(p * (1.0 - p) / max(self.trials, 1))


@dataclass(frozen=True)
class RelayEstimate:
    """Relay-ARQ estimates, pooled over both users and per user."""

    pooled: OutageEstimate
    user1: OutageEstimate
    user2: OutageEstimate
    mode_counts: tuple        # trials whose relay serves 0, 1 or 2 users,
                              # those that failed round 1
    # always 0, as no relay trial can fail to solve; a class constant,
    # not a field, kept because perfbench/spans.py:_tally_relay reads it
    aborted = 0


# ---------------------------------------------------------------------------
# direct ARQ
# ---------------------------------------------------------------------------

def _direct_margin(e: np.ndarray, kappa: float) -> np.ndarray:
    """Margins own - kappa cross, (L, 2), of unit BS gains e, one round
    per row, as (L, 2, 2) or flat (L, 4) with e[:, 2 i + j] from BS j to
    user i; -inf, a loss, where they overflow."""
    e = e.reshape(-1, 4)
    return e[:, 0::3] - kappa * e[:, 1:3]


# attempts whose BS rounds both engines read, each from its own memo
ROUNDS = 2
# the most trials whose memos, 4 gains of each of the ROUNDS rounds, 2
# direct margins and STATS relay floats of 8 B each per trial (each draw
# returns the array its memo keeps), stay under 1 GiB. A miss frees its
# memo before drawing the next, and a larger attempt budget extends the
# direct margins in place, so no run's memo dict holds more, and the dict
# goes when its run ends; a one-attempt direct run holds its round 0 and
# margins, 48 B
MAX_TRIALS = 2 ** 30 // (8 * (4 * ROUNDS + 2 + STATS))


def _drawn(memos: dict, draw, order: int, seed: int, context: int,
           index: int, trials: int) -> np.ndarray:
    """``draw(order, substream(seed, context, index), trials)``, read-only,
    memoised under its substream's (context, index) on (seed, trials,
    order), its draw's other arguments. The entry is out of ``memos``
    while it is drawn and goes back whole; a miss frees the old array
    before drawing the next, and a stored array is never written, so a
    caller may go on reading what it was given."""
    key = (seed, trials, order)
    old, rows = memos.pop((context, index), (None, None))
    if old != key:
        rows = None                       # frees the old memo
        rows = draw(order, substream(seed, context, index), trials)
        rows.flags.writeable = False
    memos[context, index] = (key, rows)
    return rows


def simulate_direct(cfg: SystemConfig, trials: int, seed: int,
                    memos: dict | None = None) -> OutageEstimate:
    """Interference-limited direct ARQ outage, pooled over both users.

    A message is lost when its best margin own - kappa cross over the
    attempts [0, cfg.retx) falls below the floor. ``trials`` is a whole
    number in [1, MAX_TRIALS]: a whole float runs as its int and True as
    1 trial; anything else raises ContractViolationError before anything
    is drawn. ``memos`` is the run's memo dict, read and filled (module
    docstring); without one the call draws afresh and keeps nothing.

    The margins memo, float (trials, 2) under ``"direct"``, is the one
    memo the engine writes: a larger budget extends its array in place.
    The call takes it out of ``memos`` until its failures are counted,
    so a racing caller never extends an array another is reading.
    Attempts below ROUNDS are read through ``_drawn``, and each later
    attempt is drawn from its substream.
    """
    units = UnitSystem.of(cfg)
    trials = whole(trials, "trials", high=MAX_TRIALS)
    memos = {} if memos is None else memos
    key = (seed, trials, cfg.N, units.kappa)
    old, first, rows = memos.pop("direct", (None, 0, None))
    if old != key or first > cfg.retx:
        first, rows = 0, None             # frees the old memo
        rows = np.full((trials, 2), -np.inf)
    with np.errstate(over="ignore"):
        for attempt in range(first, cfg.retx):
            if attempt < ROUNDS:
                e = _drawn(memos, draw_bs_channels, cfg.N, seed, CTX_DIRECT,
                           attempt, trials)
            else:
                rng = substream(seed, CTX_DIRECT, attempt)
            for lo in range(0, trials, PASS_ROWS):
                best = rows[lo:lo + PASS_ROWS]
                gains = (e[lo:lo + PASS_ROWS] if attempt < ROUNDS else
                         draw_bs_channels(cfg.N, rng, rounds=len(best)))
                np.maximum(best, _direct_margin(gains, units.kappa), out=best)
    fails = sum(np.count_nonzero(rows[lo:lo + PASS_ROWS] < units.floor)
                for lo in range(0, trials, PASS_ROWS))
    memos["direct"] = (key, cfg.retx, rows)
    return OutageEstimate(trials=2 * trials, failures=int(fails))


# ---------------------------------------------------------------------------
# relay ARQ
# ---------------------------------------------------------------------------

def judge_relay(units: UnitSystem, e1: np.ndarray, e2: np.ndarray,
                stats: np.ndarray):
    """``(round1, delivered)``, bool (n, 2) masks of the relay-ARQ trials
    whose unit BS gains of rounds 1 and 2 are e1 and e2, float (n, 2, 2)
    or flat (n, 4) as ``_direct_margin`` reads them, and whose relay
    statistics are ``stats``, float (n, STATS), as
    ``channel.draw_relay_stats`` draws them: which users decoded the
    direct round, and whose messages were delivered in the end. The
    engine passes direct attempts 0 and 1 as e1 and e2; of round 2, a
    failed user f reads only its cross gain e2[f, 1 - f].

    A user's message is delivered when the user decoded round 1 or, if
    not, when the relay design its partner's round-1 outcome selects
    rescues it: the zero-forcing beam if the partner decoded, the
    max-min design if the partner failed too. So ``round1`` also gives
    the trial's mode: the relay serves the users that failed it. Both
    rescue tests are evaluated for every trial and user. Every test
    reads only the ratios of ``units``, the config's ``UnitSystem``, so
    a zero relay channel rescues nobody at a positive rate.
    """
    # a margin that overflows to inf is a loss
    with np.errstate(over="ignore", invalid="ignore"):
        ok = _direct_margin(e1, units.kappa) >= units.floor
        a, b, c = stats.T
        n2 = b + c                        # ||g2||^2 / var_relay
        beta = np.divide(b, n2, out=np.ones_like(b), where=n2 > 0)

        # user f alone failed: the relay zero-forces toward its partner
        # while the partner's BS serves fresh traffic, both at power P.
        # f's unit gain is (A B / (B + C), B)[f], or A for f = 0 where
        # g2 = 0 leaves nothing to null, against its round-2 cross gain;
        # the test is divided by P var_relay. A failure needs gamma > 0,
        # so a zero g_f (gain 0) fails here too.
        single = (np.stack((a * beta, b), axis=1)
                  - units.kappa_r * e2.reshape(-1, 4)[:, 1:3] >= units.floor_r)

        # both failed: both messages ride the relay at the balanced SINR
        # t of u = 2P / (noise / ||g1||^2 + noise / ||g2||^2) and beta.
        # A zero channel leaves t at 0, or NaN where 0 / 0 or inf * 0 forms
        # u; neither rescues anyone at a positive rate
        u = units.rho * (a * (n2 / (a + n2)))
        multi = balanced_sinr(u, u * beta)[2] >= units.gamma

    return ok, ok | np.where(ok[:, ::-1], single, multi[:, None])


def simulate_relay(cfg: SystemConfig, trials: int, seed: int,
                   memos: dict | None = None) -> RelayEstimate:
    """Relay-assisted ARQ outage: one direct round plus one relay round.

    The trials are judged PASS_ROWS at a time from the memoised rounds of
    direct attempts 0 and 1 and relay statistics, so a sweep that passes
    one ``memos`` dict to every point, over all but (seed, trials, N, M),
    draws nothing after its first point. The zero-forcing round needs
    cfg.M at least 2, read by ``whole`` before ``trials``; ``trials`` and
    ``memos`` are read as ``simulate_direct`` reads them.
    """
    whole(cfg.M, "M", low=2)
    trials = whole(trials, "trials", high=MAX_TRIALS)
    memos = {} if memos is None else memos
    units = UnitSystem.of(cfg)
    inputs = (*(_drawn(memos, draw_bs_channels, cfg.N, seed, CTX_DIRECT, a,
                       trials) for a in range(ROUNDS)),
              _drawn(memos, draw_relay_stats, cfg.M, seed, CTX_RELAY, 0,
                     trials))
    # (fail_1, fail_2, n_none, n_single, n_multi)
    counts = np.zeros(5, dtype=np.int64)
    for lo in range(0, trials, PASS_ROWS):
        round1, delivered = judge_relay(
            units, *(x[lo:lo + PASS_ROWS] for x in inputs))
        counts[:2] += np.count_nonzero(~delivered, axis=0)
        counts[2:] += np.bincount((~round1).sum(axis=1), minlength=3)
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
    per grid point. Its points share one memo dict, freed when it returns.
    """
    note = progress if progress is not None else (lambda msg: None)
    rows, memos = [], {}
    if preset == "fig1":
        # the one-attempt law does not depend on L: one per SNR
        p_int = {snr: outage_interference_n3(_cfg(_FIG1_BASE, snr))
                 for snr in FIG1_SNR_DB}
        # L outer and rising, so each curve draws only the attempts the
        # one before it lacks
        for attempts in FIG1_ATTEMPTS:
            for snr in FIG1_SNR_DB:
                cfg = _cfg(_FIG1_BASE, snr, retx=attempts)
                analytic = arq_outage(p_int[snr], attempts)
                est = simulate_direct(cfg, trials, seed, memos)
                rows.append((float(snr), attempts, analytic, est.p_hat,
                             est.ci_halfwidth))
                note(f"fig1 L={attempts} snr={snr}")
        rows.sort(key=lambda row: row[0])    # stable: SNR-major, L minor
        return ("SNR_dB", "L", "analytic", "mc", "ci"), rows

    if preset == "fig2":
        for rate in FIG2_RATES:
            cfg = _cfg(_FIG23_BASE, FIG2_SNR_DB, rate=float(rate), retx=2)
            bound = arq_outage(outage_single_user(cfg), cfg.retx)
            rows.append((float(rate), "single-user", bound, 0.0))
            direct = simulate_direct(cfg, trials, seed, memos)
            rows.append((float(rate), "direct-arq", direct.p_hat,
                         direct.ci_halfwidth))
            relay = simulate_relay(cfg, trials, seed, memos)
            rows.append((float(rate), "relay-arq", relay.pooled.p_hat,
                         relay.pooled.ci_halfwidth))
            note(f"fig2 R={rate}")
        return ("R", "series", "p", "ci"), rows

    if preset == "fig3":
        for m in FIG3_M:
            cfg = _cfg(_FIG23_BASE, FIG3_SNR_DB, rate=FIG3_RATE, retx=2, M=m)
            bound = arq_outage(outage_single_user(cfg), cfg.retx)
            rows.append((float(m), "single-user", bound, 0.0))
            relay = simulate_relay(cfg, trials, seed, memos)
            rows.append((float(m), "relay-arq", relay.pooled.p_hat,
                         relay.pooled.ci_halfwidth))
            note(f"fig3 M={m}")
        return ("M", "series", "p", "ci"), rows

    raise ContractViolationError(f"unknown preset: {preset!r}")
