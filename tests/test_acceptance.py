"""End-to-end acceptance gates.

Each test here certifies one headline guarantee of the package at full
scale: Monte Carlo against closed-form analytics, solver output against
independent oracles, figure-level curve shapes, and bitwise determinism.
One test per guarantee, so a verbose run reads as a pass/fail checklist.
"""

import math
import time

import numpy as np
import pytest

from relayarq.channel import SystemConfig
from relayarq.outage import (arq_outage, cdf_diff_exp,
                             outage_interference_n3, outage_single_user)
from relayarq.relay_multi import max_min_sinr
from relayarq.relay_single import solve_single_user_beamformer
from relayarq.simulate import (FIG2_RATES, FIG2_SNR_DB, FIG3_M, FIG3_RATE,
                               FIG3_SNR_DB, simulate_direct, simulate_relay)
from relayarq import cli, simulate

from _oracles import brute_force_m2, cf_inversion_cdf, cn_vector, null_basis
from _sdp_oracle import SdpInstance, solve_feasibility

# interference-limited example system: 3 BS antennas, strong direct links
EXAMPLE_BASE = dict(N=3, M=3, noise_var=1e-3, var_direct=2.0, var_cross=1.0,
                    var_relay=4.0, rate=2.0)
# relay study system used by the rate and antenna sweeps
STUDY_BASE = dict(N=3, M=3, noise_var=1.0, var_direct=2.0, var_cross=1.0,
                  var_relay=4.0)


def _cfg(base: dict, snr_db: float, **kw) -> SystemConfig:
    merged = dict(base, **kw)
    p = merged["noise_var"] * 10.0 ** (snr_db / 10.0)
    return SystemConfig(P=p, **merged)


def _guard(est) -> float:
    # CI half width with a rule-of-three floor so zero-failure estimates
    # still carry an honest upper bound
    return max(est.ci_halfwidth, 3.0 / est.trials)


def _rss(a: float, b: float) -> float:
    return math.hypot(a, b)


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
    # cdf_diff_exp(lam c, lam / mu, n)

    # unit mass: the law runs from 0 to 1 over its tails
    for _ in range(5):
        kappa = rng.uniform(0.25, 2.5) / rng.uniform(0.25, 2.5)
        n = int(rng.integers(1, 7))
        assert cdf_diff_exp(-60.0 * kappa, kappa, n) <= 1e-10
        assert cdf_diff_exp(60.0, kappa, n) >= 1.0 - 1e-10

    # CDF values against Gil-Pelaez inversion of the CF, orders 1..6, with
    # z in units of the law's scale sqrt(kappa) (the oracle's domain)
    worst = 0.0
    for i in range(60):
        kappa = rng.uniform(0.25, 2.5) / rng.uniform(0.25, 2.5)
        n = 1 + i % 6
        z = rng.uniform(-6.0, 6.0) * np.sqrt(kappa)
        err = abs(cf_inversion_cdf(z, kappa, n) - cdf_diff_exp(z, kappa, n))
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


def test_c6_multiuser_solver_cross_checks():
    """Duality optimum sits inside an SDP certificate bracket; and a grid."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    noise_var = 1.0

    def contract(sol, h1, h2, power):
        s1 = abs(np.vdot(h1, sol.b1)) ** 2 \
            / (abs(np.vdot(h1, sol.b2)) ** 2 + noise_var)
        s2 = abs(np.vdot(h2, sol.b2)) ** 2 \
            / (abs(np.vdot(h2, sol.b1)) ** 2 + noise_var)
        assert min(s1, s2) >= sol.t_star * (1.0 - 1e-9)
        assert abs(s1 - s2) <= 1e-9 * sol.t_star
        used = np.linalg.norm(sol.b1) ** 2 + np.linalg.norm(sol.b2) ** 2
        assert used <= power * (1.0 + 1e-12)

    # the SDP relaxation is tight, so its feasibility verdicts bracket the
    # duality optimum: feasible just below it, infeasible just above. The
    # barrier solver resolves targets to about 1e-5 of t (at 1e-6 it
    # misjudges some), so that is the bracket's half width
    delta = 1e-5
    for _ in range(200):
        h1 = cn_vector(rng, 3, 1.0)
        h2 = cn_vector(rng, 3, 1.0)
        power = 10.0 ** rng.uniform(0.5, 2.0)
        sol = max_min_sinr(h1, h2, power, noise_var=noise_var)
        for side, want in ((1.0 - delta, True), (1.0 + delta, False)):
            inst = SdpInstance(dim=3, C1=np.outer(h1, h1.conj()),
                               C2=np.outer(h2, h2.conj()),
                               t=sol.t_star * side, noise_var=noise_var,
                               power=power)
            out = solve_feasibility(inst, verdict_only=True)
            assert out.feasible == want, (
                f"SDP calls t* (1 {side - 1:+.0e}) "
                f"{'infeasible' if want else 'feasible'}, "
                f"t*={sol.t_star:.9g}")
        contract(sol, h1, h2, power)

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
    print(f"  400 SDP verdicts bracket t* at +/-{delta:.0e}, "
          f"worst grid rel gap {worst_grid:.2e}, elapsed {elapsed:.0f} s")
    assert elapsed <= 600.0


def test_c7_rate_sweep_relay_beats_direct():
    """Relay ARQ stays under direct ARQ at every rate and pulls away."""
    trials = 1000
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
        print(f"  R={rate}  direct={direct.p_hat:.4f}  "
              f"relay={relay.pooled.p_hat:.4f}  gap={gaps[-1]:.4f}")

    # widening: no statistically significant narrowing anywhere, and the
    # last gap clears the first by more than the combined uncertainty
    for k in range(len(gaps) - 1):
        assert gaps[k + 1] - gaps[k] >= -_rss(errs[k], errs[k + 1])
    assert gaps[-1] - gaps[0] >= _rss(errs[0], errs[-1])


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
    pass of trials, so neither a repeat run with the memos cleared nor
    the pass size ``simulate.PASS_ROWS`` may change a byte. ``--threads``
    is accepted and changes nothing.
    """
    commands = {
        "relay": ["simulate-relay", "--seed", "7", "--trials", "300",
                  "--rate", "2", "--snr-db", "40"],
        "direct": ["simulate-direct", "--seed", "5", "--trials", "3000",
                   "--rate", "2", "--snr-db", "0:40:10"],
    }

    def run(argv, tag):
        path = tmp_path / f"{tag}.csv"
        simulate.clear_memos()          # each run draws afresh
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
