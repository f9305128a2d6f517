"""End-to-end acceptance gates.

Each test here certifies one headline guarantee of the package at full
scale: Monte Carlo against closed-form analytics, solver output against
independent oracles, figure-level curve shapes, and bitwise determinism.
One test per guarantee, so a verbose run reads as a pass/fail checklist.
"""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from scipy.special import betainc
from scipy.stats import binomtest

from relayarq.channel import (CTX_DIRECT, CTX_RELAY, MAX_ANTENNAS,
                              MAX_ATTEMPTS, MAX_FINITE, MAX_SEED,
                              MIN_POSITIVE, ContractViolationError,
                              SystemConfig, ratio)
from relayarq.outage import (UnitSystem, arq_outage, cdf_diff_exp,
                             outage_interference_n3, outage_single_user)
from relayarq.relay_multi import max_min_sinr
from relayarq.relay_single import solve_single_user_beamformer
from relayarq.simulate import (FIG2_RATES, FIG2_SNR_DB, FIG3_M, FIG3_RATE,
                               FIG3_SNR_DB, simulate_direct, simulate_relay)
import relayarq.cli as cli
import relayarq.simulate as simulate

from _oracles import (brute_force_m2, cdf_whole_line, cf_inversion_cdf,
                      cn_vector, dual_checks, duality_bracket, null_basis)

# interference-limited example system: 3 BS antennas, strong direct links
EXAMPLE_BASE = dict(N=3, M=3, noise_var=1e-3, var_direct=2.0, var_cross=1.0,
                    var_relay=4.0, rate=2.0)
# relay study system used by the rate and antenna sweeps
STUDY_BASE = dict(N=3, M=3, noise_var=1.0, var_direct=2.0, var_cross=1.0,
                  var_relay=4.0)
# family level of test_c7's paired tests over the rate sweep
C7_FAMILY_ALPHA = 1e-4


def _cfg(base: dict, snr_db: float, **kw) -> SystemConfig:
    return SystemConfig.at_snr(snr_db, **dict(base, **kw))


def _guard(est) -> float:
    # CI half width with a rule-of-three floor so zero-failure estimates
    # still carry an honest upper bound
    return max(est.ci_halfwidth, 3.0 / est.trials)


def _rss(a: float, b: float) -> float:
    return math.hypot(a, b)


def _relay_inputs(memos: dict, cfg: SystemConfig, seed: int, trials: int):
    """The relay engine's memoised inputs of ``judge_relay``: the BS rounds
    of direct attempts 0 and 1 and the relay statistics."""
    return (*(simulate._drawn(memos, simulate.draw_bs_channels, cfg.N, seed,
                              CTX_DIRECT, a, trials) for a in (0, 1)),
            simulate._drawn(memos, simulate.draw_relay_stats, cfg.M, seed,
                            CTX_RELAY, 0, trials))


def test_c1_direct_outage_analytics_match_monte_carlo():
    """Closed-form interference outage tracks simulation over 0..40 dB."""
    t0 = time.perf_counter()
    report = []
    for snr in (0.0, 10.0, 20.0, 30.0, 40.0):
        cfg = _cfg(EXAMPLE_BASE, snr, retx=1)
        analytic = outage_interference_n3(cfg)
        est = simulate_direct(cfg, trials=100_000, seed=11)
        sigma = math.sqrt(analytic * (1.0 - analytic) / est.trials)
        gap = abs(est.p_hat - analytic)
        report.append((snr, analytic, est.p_hat, gap, 3.0 * sigma))
        assert gap <= 3.0 * sigma, (
            f"snr={snr}: |mc - analytic| = {gap:.3e} > 3 sigma = {3 * sigma:.3e}")
    elapsed = time.perf_counter() - t0
    for snr, ana, mc, gap, lim in report:
        print(f"  snr={snr:4.0f} dB  analytic={ana:.5f}  mc={mc:.5f}  "
              f"|gap|={gap:.2e} (limit {lim:.2e})")
    print(f"  elapsed {elapsed:.1f} s")
    assert elapsed <= 60.0


def test_c2_difference_density_fidelity():
    """The closed-form CDF has unit mass and matches CF inversion at any N."""
    rng = np.random.default_rng(17)
    # tail rates lam and mu map onto the law's units as F_(lam, mu)(c) =
    # cdf_diff_exp(lam c, lam / mu, n); below 0 it is read with X and Y
    # swapped (cdf_whole_line)

    # unit mass: the law runs from 0 to 1 over its tails
    for _ in range(5):
        kappa = rng.uniform(0.25, 2.5) / rng.uniform(0.25, 2.5)
        n = int(rng.integers(1, 7))
        assert cdf_whole_line(-60.0 * kappa, kappa, n) <= 1e-10
        assert cdf_diff_exp(60.0, kappa, n) >= 1.0 - 1e-10

    # CDF values against Gil-Pelaez inversion of the CF, orders 1..6, with
    # z in units of the law's scale sqrt(kappa) (the oracle's domain)
    worst = 0.0
    for i in range(60):
        kappa = rng.uniform(0.25, 2.5) / rng.uniform(0.25, 2.5)
        n = 1 + i % 6
        z = rng.uniform(-6.0, 6.0) * np.sqrt(kappa)
        err = abs(cf_inversion_cdf(z, kappa, n) - cdf_whole_line(z, kappa, n))
        worst = max(worst, err)
        assert err <= 1e-7, (kappa, n, z)
    print(f"  worst cdf-vs-CF error over 60 points: {worst:.2e}")

    # equal rates make the law symmetric, so half the mass sits below zero
    assert abs(cdf_diff_exp(0.0, 1.0, 3) - 0.5) <= 1e-9
    assert abs(cf_inversion_cdf(0.0, 1.0, 3, tol=1e-10) - 0.5) <= 1e-9


def test_c3_arq_attempts_compose_by_powers():
    """Three-attempt simulated outage matches the cubed per-round outage."""
    cfg = _cfg(EXAMPLE_BASE, 10.0, retx=3)
    p1 = outage_interference_n3(cfg)
    target = p1 ** 3
    est = simulate_direct(cfg, trials=100_000, seed=23)
    sigma = math.sqrt(target * (1.0 - target) / est.trials)
    gap = abs(est.p_hat - target)
    print(f"  p1={p1:.5f}  p1^3={target:.5f}  mc={est.p_hat:.5f}  "
          f"|gap|={gap:.2e} (limit {3 * sigma:.2e})")
    assert gap <= 3.0 * sigma


def test_c4_interference_floor_is_one_half():
    """Matched direct/cross rates pin the high-SNR outage floor at 1/2.

    With var_direct = gamma * var_cross the two exponential rates of the
    decision statistic coincide, the density is even, and no amount of
    transmit power pushes the outage below one half, while a single user
    free of interference would see essentially zero outage.
    """
    gamma = 2.0 ** 2.0 - 1.0
    cfg = SystemConfig(N=3, M=3, P=1e12, noise_var=1.0,
                       var_direct=gamma * 1.0, var_cross=1.0, var_relay=4.0,
                       rate=2.0, retx=1)
    floor = outage_interference_n3(cfg)
    lone = outage_single_user(cfg)
    print(f"  interference outage at 120 dB: {floor:.6f}  "
          f"single-user outage: {lone:.2e}")
    assert 0.499 <= floor <= 0.501
    assert lone < 1e-6


def test_c5_single_user_beamformer_is_optimal():
    """Closed-form beamformer meets the projector bound and the optimum."""
    rng = np.random.default_rng(31)
    sizes = (2, 3, 4, 6)
    worst_rel = worst_opt = worst_resid = 0.0
    for k in range(1000):
        m = sizes[k % 4]
        g_p = cn_vector(rng, m, rng.uniform(0.5, 4.0))
        g_t = cn_vector(rng, m, rng.uniform(0.5, 4.0))
        power = 10.0 ** rng.uniform(-1.0, 2.0)
        b = solve_single_user_beamformer(g_p, g_t, power)
        achieved = abs(np.vdot(b, g_t)) ** 2
        resid = abs(np.vdot(b, g_p))

        np2 = np.vdot(g_p, g_p).real
        proj = g_t - g_p * (np.vdot(g_p, g_t) / np2)
        ref = power * float(np.vdot(proj, proj).real)
        rel = abs(achieved - ref) / ref
        worst_rel = max(worst_rel, rel)
        worst_resid = max(worst_resid, resid)
        assert rel <= 1e-9
        assert resid <= 1e-10

        # every feasible beam is N w with ||w||^2 = power, N an orthonormal
        # basis of the null space of g_p^H, so the optimum is power times
        # the top eigenvalue of N^H g_t g_t^H N
        basis = null_basis(g_p)
        u = basis.conj().T @ g_t
        opt = power * np.linalg.eigvalsh(np.outer(u, u.conj()))[-1]
        gap = abs(achieved - opt) / opt
        worst_opt = max(worst_opt, gap)
        assert gap <= 1e-12
    print(f"  worst relative objective error {worst_rel:.2e}, "
          f"worst gap to the optimum {worst_opt:.2e}, "
          f"worst null residual {worst_resid:.2e}")


def _c6_draws(rng):
    """test_c6's 200 three-antenna pairs and budgets, from ``rng``."""
    for _ in range(200):
        h1 = cn_vector(rng, 3, 1.0)
        h2 = cn_vector(rng, 3, 1.0)
        yield h1, h2, 10.0 ** rng.uniform(0.5, 2.0)


def test_c6_multiuser_solver_cross_checks():
    """Duality optimum sits inside a 1e-9 certificate bracket; and a grid."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    noise_var = 1.0

    # the beams are feasible for the semidefinite relaxation at
    # t* (1 - delta), and a dual certificate rules out t* (1 + delta), draw
    # by draw: t* is the relaxation's optimum, which loses nothing
    delta = 1e-9
    worst = -math.inf
    for h1, h2, power in _c6_draws(rng):
        sol, checks = duality_bracket(h1, h2, power, noise_var, delta)
        s1 = abs(np.vdot(h1, sol.b1)) ** 2 \
            / (abs(np.vdot(h1, sol.b2)) ** 2 + noise_var)
        s2 = abs(np.vdot(h2, sol.b2)) ** 2 \
            / (abs(np.vdot(h2, sol.b1)) ** 2 + noise_var)
        assert abs(s1 - s2) <= 1e-9 * sol.t_star
        worst = max(worst, *checks)

    # two-antenna relays are small enough to grid the whole design space
    worst_grid = 0.0
    for _ in range(8):
        h1 = cn_vector(rng, 2, 1.0)
        h2 = cn_vector(rng, 2, 1.0)
        power = 10.0 ** rng.uniform(0.0, 1.5)
        sol = max_min_sinr(h1, h2, power, noise_var=noise_var)
        grid = brute_force_m2(h1, h2, power, noise_var,
                              n_theta=161, n_alpha=181)
        rel = abs(sol.t_star - grid) / grid
        worst_grid = max(worst_grid, rel)
        # the grid only samples feasible designs, so it bounds t* below
        assert sol.t_star >= grid * (1.0 - 1e-6)
        assert rel <= 0.02, f"solver {sol.t_star:.6g} vs grid {grid:.6g}"

    elapsed = time.perf_counter() - t0
    print(f"  200 duality certificates bracket t* at +/-{delta:.0e} "
          f"(largest check {worst:.2e}), worst grid rel gap "
          f"{worst_grid:.2e}, elapsed {elapsed:.1f} s")
    assert elapsed <= 600.0


def test_c6_certificate_rejects_the_feasible_side():
    """The certificate fails at t* (1 - 1e-9): the bracket is sharp.

    At a target the beams reach, weak duality forbids all three checks
    below zero. Built from test_c6's draws and the same dual uplink
    powers, at least one is positive on every draw, so in floats the
    checks resolve delta = 1e-9 and do not pass at any t.
    """
    rng = np.random.default_rng(41)
    noise_var, delta = 1.0, 1e-9
    least = math.inf
    for h1, h2, power in _c6_draws(rng):
        sol = max_min_sinr(h1, h2, power, noise_var=noise_var)
        worst = max(dual_checks(h1, h2, sol.q1, sol.q2,
                                sol.t_star * (1 - delta), power, noise_var,
                                delta))
        assert worst > 0, f"certificate holds at t* (1 - {delta:.0e})"
        least = min(least, worst)
    print(f"  smallest violation at t* (1 - {delta:.0e}): {least:.2e}")


def _mcnemar_p(b: int, c: int) -> float:
    """Exact one-sided McNemar p-value: P{X >= b} for X ~ Bin(b + c, 1/2),
    the chance of b or more of the b + c discordant pairs on one side
    when both sides are equally likely."""
    n = b + c
    total, term = 0, math.comb(n, b)
    for k in range(b, n + 1):       # term = C(n, k), updated exactly
        total += term
        term = term * (n - k) // (k + 1)
    return total / 2 ** n


def test_c7_rate_sweep_relay_beats_direct():
    """Relay ARQ stays under direct ARQ at every rate and pulls away.

    Both engines read the same round 1 (direct attempt 0), so each rate
    also gets a paired test: an exact one-sided McNemar test on the
    (trial, user) messages one scheme loses and the other delivers,
    Bonferroni-corrected over the 7 rates to a family level of 1e-4.
    """
    trials = 1000
    alpha = C7_FAMILY_ALPHA / len(FIG2_RATES)
    gaps, errs = [], []
    for rate in FIG2_RATES:
        cfg = _cfg(STUDY_BASE, FIG2_SNR_DB, rate=float(rate), retx=2)
        direct = simulate_direct(cfg, trials, seed=0)
        relay = simulate_relay(cfg, trials, seed=0)
        assert relay.aborted <= max(1, trials // 1000)
        g_d, g_r = _guard(direct), _guard(relay.pooled)
        assert relay.pooled.p_hat + g_r < direct.p_hat - g_d, (
            f"R={rate}: relay {relay.pooled.p_hat:.4f}+{g_r:.4f} not below "
            f"direct {direct.p_hat:.4f}-{g_d:.4f}")
        gaps.append(direct.p_hat - relay.pooled.p_hat)
        errs.append(_rss(g_d, g_r))

        # the same messages, trial by trial, from the engines' memos
        memos = {}
        units = UnitSystem.of(cfg)
        simulate_direct(cfg, trials, 0, memos)
        direct_lost = memos["direct"][2] < units.floor
        _, delivered = simulate.judge_relay(units, *_relay_inputs(
            memos, cfg, 0, trials))
        relay_lost = ~delivered
        assert direct_lost.sum() == direct.failures
        assert relay_lost.sum() == relay.pooled.failures
        b = int((direct_lost & ~relay_lost).sum())
        c = int((relay_lost & ~direct_lost).sum())
        p = _mcnemar_p(b, c)
        assert p <= alpha, f"R={rate}: McNemar b={b} c={c} p={p:.3g}"
        print(f"  R={rate}  direct={direct.p_hat:.4f}  "
              f"relay={relay.pooled.p_hat:.4f}  gap={gaps[-1]:.4f}  "
              f"b={b} c={c} p={p:.3g}")

    # widening: no statistically significant narrowing anywhere, and the
    # last gap clears the first by more than the combined uncertainty
    for k in range(len(gaps) - 1):
        assert gaps[k + 1] - gaps[k] >= -_rss(errs[k], errs[k + 1])
    assert gaps[-1] - gaps[0] >= _rss(errs[0], errs[-1])


def _cli_default_cfg(snr_db: float, **kw) -> SystemConfig:
    """The system of the CLI's default parameters, at snr_db."""
    params = {key: default for key, (_, default) in cli.PARAMS.items()}
    return cli._build_cfg(dict(params, **kw), snr_db)


def test_c10_relay_curve_dips():
    """More power, or a lower rate, can lose more relay-ARQ messages.

    A partner that decodes round 1 selects the zero-forcing round, which
    faces the partner BS's fresh traffic; a partner that fails silences
    both BSs, and the max-min round sees only noise. So at rate 4 the CLI's
    default system loses more messages at 40 dB than at 20 dB, and at 40 dB
    more at rate 2 than at rate 4. All three points judge the same memoised
    rounds and relay statistics, so each claim is an exact one-sided
    McNemar test on the messages only one of its two points loses,
    Bonferroni-corrected over the two claims to a family level of 1e-4.
    """
    trials, seed = 100_000, 4
    alpha = C7_FAMILY_ALPHA / 2
    base = _cli_default_cfg(0.0)         # the draws read only N and M
    memos = {}
    inputs = _relay_inputs(memos, base, seed, trials)

    lost = {}
    for snr_db, rate in ((20.0, 4.0), (40.0, 4.0), (40.0, 2.0)):
        cfg = _cli_default_cfg(snr_db, rate=rate)
        _, delivered = simulate.judge_relay(UnitSystem.of(cfg), *inputs)
        lost[snr_db, rate] = ~delivered
        assert (~delivered).sum() == \
            simulate_relay(cfg, trials, seed).pooled.failures

    for more, less, claim in (
            ((40.0, 4.0), (20.0, 4.0), "rate 4: 40 dB loses more than 20"),
            ((40.0, 2.0), (40.0, 4.0), "40 dB: rate 2 loses more than 4")):
        lost_more, lost_less = lost[more], lost[less]
        b = int((lost_more & ~lost_less).sum())
        c = int((lost_less & ~lost_more).sum())
        p = _mcnemar_p(b, c)
        print(f"  {claim}: b={b} c={c} p={p:.3g}")
        assert p <= alpha, f"{claim}: McNemar b={b} c={c} p={p:.3g}"


def test_c11_relay_floor_matches_closed_form():
    """At 300 dB each user's relay-ARQ outage is its interference floor.

    As P grows, round 1 fails for each user with p_d = I_{k/(1+k)}(N, N),
    k = gamma var_cross / var_direct; the max-min round, which sees only
    noise, rescues every message; and the zero-forcing round fails with
    p_s = I_{k'/(1+k')}(M - 1, N), k' = gamma var_cross / (N var_relay),
    against the partner BS's fresh traffic. A message is then lost with
    p_d (1 - p_d) p_s. Each user's failure count is binomial (the pooled
    count is not: a trial's users share their relay round), so each gets
    an exact two-sided binomial test, Bonferroni-corrected over the three
    rates and two users to a family level of 1e-4.
    """
    trials, seed = 200_000, 4
    rates = (2.0, 4.0, 6.0)
    alpha = 1e-4 / (2 * len(rates))
    for rate in rates:
        cfg = _cli_default_cfg(300.0, rate=rate)
        gamma = 2.0 ** cfg.rate - 1.0
        k = gamma * cfg.var_cross / cfg.var_direct
        k_relay = gamma * cfg.var_cross / (cfg.N * cfg.var_relay)
        p_d = betainc(cfg.N, cfg.N, k / (1 + k))
        p_s = betainc(cfg.M - 1, cfg.N, k_relay / (1 + k_relay))
        law = p_d * (1 - p_d) * p_s
        est = simulate_relay(cfg, trials, seed)
        for user, got in (("user1", est.user1), ("user2", est.user2)):
            p = binomtest(got.failures, got.trials, law).pvalue
            print(f"  R={rate:g} {user}: law={law:.6g} "
                  f"mc={got.p_hat:.6g} p={p:.3g}")
            assert p >= alpha, (rate, user, got.failures, law, p)


# family level of each exact binomial gate of the direct engine, and the
# examples of the property over the CLI's range
C12_FAMILY_ALPHA = 1e-4
C12_EXAMPLES = 120
# trial-attempts per example: a budget of L attempts runs C12_ROUNDS // L
# trials, so an example at the attempt ceiling draws what one at L = 1 does
C12_ROUNDS = 40_000
# the largest rate a config accepts: 2^rate stays finite
MAX_RATE = math.nextafter(sys.float_info.max_exp, 0)


def _snr_range(noise_var: float):
    """The SNRs at which ``at_snr`` forms a P the config accepts, in
    [MIN_POSITIVE, MAX_FINITE / 2], with 10^(SNR/10) finite and nonzero:
    1 dB inside the bottom, where P may be subnormal, and 0.01 dB inside
    the top."""
    lg = math.log10(noise_var)
    return (max(10 * (math.log10(MIN_POSITIVE) - lg),
                10 * math.log10(MIN_POSITIVE)) + 1,
            min(10 * (math.log10(MAX_FINITE / 2) - lg),
                10 * math.log10(MAX_FINITE)) - 0.01)


@st.composite
def _direct_configs(draw):
    """A config across the CLI's range, its budget L log-uniform.

    One example in four draws every field across its whole range, zeros
    included; the law there is mostly 0 or 1 in floats. The others draw
    N and the rate across theirs and the noise from 1e-300 to 1e300, and
    aim the rest where the law lies inside (0, 1): var_direct within
    10^30 of gamma = 2^R - 1, var_cross at kappa = gamma var_cross /
    var_direct from 1e-3 to 2, the SNR at a floor z standard deviations
    of X - kappa Y from its mean, |z| <= 8, and L no larger than keeps
    p^L above 1e-300. Only the law steers a draw, never a count the
    engine makes.
    """
    anywhere = draw(st.integers(0, 3), label="anywhere") == 0
    n = draw(st.integers(1, MAX_ANTENNAS), label="N")
    # below 2^-40, gamma is too small to aim with, and 0 where it rounds
    rate = draw(st.floats(0.0 if anywhere else 2.0 ** -40, MAX_RATE),
                label="rate")
    noise = draw(st.floats(MIN_POSITIVE, MAX_FINITE) if anywhere else
                 st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                 label="noise_var")
    lo, hi = _snr_range(noise)
    fields = dict(N=n, M=draw(st.integers(1, MAX_ANTENNAS), label="M"),
                  noise_var=noise, rate=rate, var_relay=draw(
                      st.floats(0.0, MAX_FINITE), label="var_relay"))
    if anywhere:
        snr = draw(st.floats(lo, hi), label="snr_db")
        fields.update(
            var_direct=draw(st.floats(0.0, MAX_FINITE), label="var_direct"),
            var_cross=draw(st.floats(0.0, MAX_FINITE), label="var_cross"))
    else:
        gamma = 2.0 ** rate - 1.0
        var_direct = min(MAX_FINITE, ratio((gamma, 10.0 ** draw(
            st.floats(-30.0, 30.0), label="log10 var_direct / gamma"))))
        kappa = 10.0 ** draw(st.floats(-3.0, 0.3), label="log10 kappa")
        z = draw(st.floats(-8.0, 8.0), label="z")
        c = n * (1 - kappa) + z * math.sqrt(n * (1 + kappa ** 2))
        # floor = gamma N noise / (P var_direct), so this SNR puts it at c
        snr = hi if c <= 0 else min(max(10 * math.log10(
            ratio((gamma, n), (c, var_direct))), lo), hi)
        fields.update(var_direct=var_direct,
                      var_cross=ratio((kappa, var_direct), (gamma,)))
    try:
        cfg = SystemConfig.at_snr(snr, **fields)
    except ContractViolationError:
        reject()                  # P rounded out of range at an edge SNR
    p, top = outage_interference_n3(cfg), MAX_ATTEMPTS
    if not anywhere and 0 < p < 1:
        top = max(1, min(top, int(-300 / math.log10(p))))
    return dataclasses.replace(cfg, retx=round(10 ** draw(
        st.floats(0.0, math.log10(top)), label="log10 retx")))


def _binom_p(failures: int, messages: int, law: float) -> float:
    """``binomtest``'s exact two-sided p-value; below a law of 1e-300,
    where scipy's binomial pmf may overflow, the chance of a failure at
    all bounds it from above, so any failure still fails the gate."""
    if law < 1e-300:
        return 1.0 if failures == 0 else min(1.0, messages * law)
    return binomtest(failures, messages, law).pvalue


@settings(max_examples=C12_EXAMPLES, deadline=None, derandomize=True,
          database=None)
@given(cfg=_direct_configs(), seed=st.integers(0, MAX_SEED))
def test_c12_direct_engine_meets_its_law_across_the_cli_range(cfg, seed):
    """The direct engine's pooled failure count is Binomial(2T, p^L).

    The two users of a trial read disjoint gains and every attempt is a
    fresh round, so an exact two-sided binomial test applies at every
    config, Bonferroni-corrected over the examples to a family level of
    1e-4. Where the law is 0 or 1 in floats, any discordant count fails.
    """
    trials = max(1, C12_ROUNDS // cfg.retx)
    law = arq_outage(outage_interference_n3(cfg), cfg.retx)
    est = simulate_direct(cfg, trials, seed)
    p = _binom_p(est.failures, est.trials, law)
    assert p >= C12_FAMILY_ALPHA / C12_EXAMPLES, (est.failures, est.trials,
                                                  law, p)


@pytest.mark.parametrize("trials", [300, 100_000])
def test_c12_fig2_direct_rows_meet_their_law(trials):
    """Each ``direct-arq`` row of figure 2 (seed 3, the goldens' seed) is
    a failure count of Binomial(2T, p^2), gated as test_c12's property
    is, over the figure's rates."""
    _, rows = simulate.run_experiment("fig2", trials, seed=3)
    direct = [(rate, p) for rate, series, p, _ in rows
              if series == "direct-arq"]
    assert len(direct) == len(FIG2_RATES)
    for rate, p_hat in direct:
        cfg = _cfg(STUDY_BASE, FIG2_SNR_DB, rate=rate, retx=2)
        law = arq_outage(outage_interference_n3(cfg), cfg.retx)
        failures = round(p_hat * 2 * trials)
        p = binomtest(failures, 2 * trials, law).pvalue
        print(f"  R={rate:g}: law={law:.6g} mc={p_hat:.6g} p={p:.3g}")
        assert p >= C12_FAMILY_ALPHA / len(direct), (rate, failures, law, p)


def test_c8_antenna_sweep_monotone_and_beats_bound():
    """More relay antennas never hurt; six of them beat the lone-user bound."""
    trials = 1000
    cfg0 = _cfg(STUDY_BASE, FIG3_SNR_DB, rate=FIG3_RATE, retx=2)
    bound = arq_outage(outage_single_user(cfg0), cfg0.retx)
    ps, guards = [], []
    for m in FIG3_M:
        cfg = _cfg(STUDY_BASE, FIG3_SNR_DB, rate=FIG3_RATE, retx=2, M=m)
        relay = simulate_relay(cfg, trials, seed=0)
        assert relay.aborted <= max(1, trials // 1000)
        ps.append(relay.pooled.p_hat)
        guards.append(_guard(relay.pooled))
        print(f"  M={m}  relay={ps[-1]:.4f} (+-{guards[-1]:.4f})")
    print(f"  single-user bound {bound:.6f}")

    # nonincreasing within noise at every step, with the first step and
    # the overall drop both clearing the uncertainty
    for k in range(len(ps) - 1):
        assert ps[k + 1] - ps[k] <= _rss(guards[k], guards[k + 1])
    assert ps[0] - ps[1] >= _rss(guards[0], guards[1])
    assert ps[0] - ps[-1] >= _rss(guards[0], guards[-1])
    assert ps[-1] + guards[-1] < bound


def test_c9_csv_byte_determinism(tmp_path, monkeypatch):
    """Same seed and config give byte-identical CSV on every fresh draw.

    Each engine keys its substreams by what defines a round, never by a
    pass of trials, so neither a repeat run, which draws afresh into
    memos of its own, nor the pass size ``simulate.PASS_ROWS`` may change
    a byte. ``--threads`` is accepted and changes nothing.
    """
    commands = {
        "relay": ["simulate-relay", "--seed", "7", "--trials", "300",
                  "--rate", "2", "--snr-db", "40"],
        "direct": ["simulate-direct", "--seed", "5", "--trials", "3000",
                   "--rate", "2", "--snr-db", "0:40:10"],
    }

    def run(argv, tag):
        path = tmp_path / f"{tag}.csv"
        assert cli.main([*argv, "-o", str(path)]) == 0
        return path.read_bytes()

    for name, argv in commands.items():
        want = run(argv, name)
        assert want
        assert run(argv, f"{name}-again") == want
        for rows in (1, 7, 256):
            monkeypatch.setattr(simulate, "PASS_ROWS", rows)
            assert run(argv, f"{name}-pass{rows}") == want, (name, rows)
    assert run([*commands["relay"], "--threads", "4"], "threads") \
        == run(commands["relay"], "relay")
