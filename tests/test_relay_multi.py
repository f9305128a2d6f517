import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relayarq.channel import (MAX_FINITE, MIN_POSITIVE, ContractViolationError,
                              span_coords)
from relayarq.relay_multi import balanced_sinr, max_min_sinr

from _oracles import (brute_force_m2, cn_vector, duality_bracket,
                      exact_max_min_beams, exact_sinr,
                      orthogonal_pair_optimum, relay_gains)


def random_pair(rng, m, var=4.0):
    return cn_vector(rng, m, var), cn_vector(rng, m, var)


def sinr(h, b_own, b_other, noise_var):
    return abs(np.vdot(h, b_own)) ** 2 / (abs(np.vdot(h, b_other)) ** 2 + noise_var)


def assert_contract(sol, h1, h2, power, noise_var):
    """Beams reach t_star for both users, balanced, on the full budget."""
    s1 = sinr(h1, sol.b1, sol.b2, noise_var)
    s2 = sinr(h2, sol.b2, sol.b1, noise_var)
    assert sol.sinr1 == pytest.approx(s1, rel=1e-12)
    assert sol.sinr2 == pytest.approx(s2, rel=1e-12)
    assert min(s1, s2) >= sol.t_star * (1 - 1e-9)
    assert abs(s1 - s2) <= 1e-9 * sol.t_star
    used = np.linalg.norm(sol.b1) ** 2 + np.linalg.norm(sol.b2) ** 2
    assert used <= power * (1 + 1e-12)
    assert used == pytest.approx(power, rel=1e-9)


def assert_balanced_uplink(sol, h1, h2, power, noise_var):
    """The dual uplink balances at q1 ||h1||^2 = q2 ||h2||^2 on the full
    budget, and its MMSE receivers (matrix inverse, no Sherman-Morrison)
    both reach t_star there."""
    n1, n2 = np.vdot(h1, h1).real, np.vdot(h2, h2).real
    assert sol.q1 * n1 == pytest.approx(sol.q2 * n2, rel=1e-12)
    assert sol.q1 + sol.q2 == pytest.approx(power, rel=1e-12)
    eye = np.eye(h1.size)
    for q, h, q_other, h_other in ((sol.q1, h1, sol.q2, h2),
                                   (sol.q2, h2, sol.q1, h1)):
        cov = noise_var * eye + q_other * np.outer(h_other, h_other.conj())
        up = q * np.vdot(h, np.linalg.solve(cov, h)).real
        assert up == pytest.approx(sol.t_star, rel=1e-9)


# ---------------------------------------------------------------------------
# max-min SINR through duality
# ---------------------------------------------------------------------------

def test_orthogonal_channels_closed_form():
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        h1 = cn_vector(rng, m, 4.0)
        u = h1 / np.linalg.norm(h1)
        z = cn_vector(rng, m, 4.0)
        h2 = z - u * np.vdot(u, z)           # exactly orthogonal to h1
        power, noise = 10.0, 1.0
        want = orthogonal_pair_optimum(h1, h2, power, noise)
        sol = max_min_sinr(h1, h2, power, noise_var=noise)
        assert sol.t_star == pytest.approx(want, rel=1e-10)
        assert_contract(sol, h1, h2, power, noise)


def test_solution_contract():
    rng = np.random.default_rng(4)
    for noise in (1.0, 0.01):
        for m in (2, 3, 5):
            h1, h2 = random_pair(rng, m)
            sol = max_min_sinr(h1, h2, 20.0, noise_var=noise)
            assert_contract(sol, h1, h2, 20.0, noise)
            assert sol.b1.shape == sol.b2.shape == (m,)
            assert_balanced_uplink(sol, h1, h2, 20.0, noise)
            assert sol.t_star > 0
    # parallel channels leave no spatial separation: the relay can only
    # split power, and the balanced SINR still has to hold
    h = cn_vector(rng, 3, 4.0)
    sol = max_min_sinr(h, 2.0 * h, 20.0)
    assert_contract(sol, h, 2.0 * h, 20.0, 1.0)


def test_two_antenna_grid_oracle():
    rng = np.random.default_rng(7)
    power, noise = 10.0, 1.0
    for _ in range(3):
        h1, h2 = random_pair(rng, 2)
        sol = max_min_sinr(h1, h2, power, noise_var=noise)
        grid = brute_force_m2(h1, h2, power, noise)
        # the grid is a restricted lower bound; the solver may only beat it
        assert sol.t_star >= grid * (1 - 1e-6)
        assert sol.t_star == pytest.approx(grid, rel=0.02)


def test_high_power_meets_the_duality_bracket():
    # up to the simulator's multiuser relay power at 40 dB (2 * 10^4): the
    # beams reach t* (1 - 1e-9), and a dual certificate rules out
    # t* (1 + 1e-9) for the semidefinite relaxation
    rng = np.random.default_rng(8)
    for m in (2, 3, 4, 6):
        for power in (2e4, *10.0 ** rng.uniform(2.0, np.log10(2e4), 4)):
            h1, h2 = random_pair(rng, m)
            sol, _ = duality_bracket(h1, h2, power, 1.0, 1e-9)
            assert_contract(sol, h1, h2, power, 1.0)


def test_batched_balance_matches_single_solves():
    rng = np.random.default_rng(10)
    h1 = cn_vector(rng, 24, 4.0).reshape(6, 4)
    h2 = cn_vector(rng, 24, 4.0).reshape(6, 4)
    h2[2] = 0.0                                # an unreachable user
    h2[3] = (0.5 - 1j) * h1[3]                 # no spatial separation
    a, b, c = relay_gains(np.stack([h1, h2], axis=1)).T
    # u and beta as the engine forms them, at the budget 30 over noise 0.5
    n2 = b + c
    u = 30.0 / 0.5 * (a * (n2 / (a + n2)))
    beta = np.divide(b, n2, out=np.ones_like(b), where=n2 > 0)
    omega, w, t = balanced_sinr(u, u * beta)
    assert t.shape == (6,) and t[2] == 0.0
    for i in range(6):
        assert balanced_sinr(float(u[i]), float(u[i] * beta[i])) == (
            omega[i], w[i], t[i])
        sol = max_min_sinr(h1[i], h2[i], 30.0, noise_var=0.5)
        assert t[i] == pytest.approx(sol.t_star, rel=1e-14)
        if i != 2:
            assert (sol.q1, sol.q2) == pytest.approx(
                (30.0 * n2[i] / (a[i] + n2[i]), 30.0 * a[i] / (a[i] + n2[i])),
                rel=1e-14)


def test_balance_at_the_ends_of_u():
    # t = u (1 + x) / (1 + u) from u = 0 to inf, x = u beta: at each end
    # the batched and the scalar t equal the exact value rounded once, and
    # a subnormal optimum reads as itself, not 0
    ends = (0.0, math.ldexp(1.0, -1074), math.ldexp(1.0, -1030), 1.0,
            math.ldexp(1.0, 1023), math.inf)
    for beta in (0.0, 0.5, 1.0):
        u = np.array(ends)
        x = np.array([e * beta if beta else 0.0 for e in ends])
        _, _, batched = balanced_sinr(u, x)
        for ui, xi, t in zip(u, x, batched):
            if ui < math.inf:
                exact = Fraction(ui) * (1 + Fraction(xi)) / (1 + Fraction(ui))
                want = float(exact)               # rounded once
            else:
                want = 1 + xi                     # the limit u -> inf
            assert t == want, (ui, beta)
            assert balanced_sinr(float(ui), float(xi))[2] == t
    assert f"{balanced_sinr(2.0 ** -1030, 0.0)[2]:.3g}" == "8.69e-311"


def test_unreachable_user_gives_zero_target():
    h = cn_vector(np.random.default_rng(9), 3, 4.0)
    for h1, h2 in ((np.zeros(3), h), (h, np.zeros(3))):
        sol = max_min_sinr(h1, h2, 20.0)
        assert sol.t_star == sol.sinr1 == sol.sinr2 == 0.0
        assert not sol.b1.any() and not sol.b2.any()


def test_input_validation():
    with pytest.raises(ContractViolationError, match="equal length"):
        max_min_sinr(np.ones(3), np.ones(4), 1.0)


# each refused budget's or noise's message: ``channel.real`` with
# MIN_POSITIVE and MAX_FINITE as its bounds
BUDGET_REFUSALS = {
    math.nan: "must be a real number",
    math.inf: f"must be at most {MAX_FINITE!r}",
    -math.inf: f"must be at least {MIN_POSITIVE!r}",
    0.0: f"must be at least {MIN_POSITIVE!r}",
    -1.0: f"must be at least {MIN_POSITIVE!r}",
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_budget_must_be_positive_and_finite(bad):
    # the single-user design's rule, here on the noise as on the budget
    h1, h2 = random_pair(np.random.default_rng(6), 3)
    for name, power, noise_var in (("power", bad, 1.0),
                                   ("noise_var", 1.0, bad)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError) as info:
                max_min_sinr(h1, h2, power, noise_var=noise_var)
        assert str(info.value) == f"{name} {BUDGET_REFUSALS[bad]}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_non_finite_channels_are_refused(bad):
    # a NaN or inf entry in either channel is bad input, not an SINR that
    # overflows, which the design once gave as its reason
    for which in (0, 1):
        h = [np.ones(3, complex), np.ones(3, complex)]
        h[which][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError,
                               match="relay channels must be finite"):
                max_min_sinr(*h, 1.0)


def log2_sum_sq(*xs):
    """log2 of sum |x|^2, with nothing squared out of the float range."""
    top = max(abs(x) for x in xs)
    if not top:
        return -math.inf
    return 2 * math.log2(top) + math.log2(sum((abs(x) / top) ** 2 for x in xs))


def log2_optimum_scales(h1, h2, power):
    """log2 of power ||h1||^2 ||h2||^2 / (||h1||^2 + ||h2||^2) and of
    power (||h1||^2 ||h2||^2 - |h1^H h2|^2) / (||h1||^2 + ||h2||^2), the
    optimum's value at low SNR and at high SNR (noise 1; t_star is at
    most one more than the latter). They are formed from the coordinates
    of ``span_coords``, where the Gram term is |a|^2 |b|^2, free of
    cancellation."""
    _, a, b, c = span_coords(h1, h2)
    base = math.log2(power) + log2_sum_sq(a) - log2_sum_sq(a, b, c)
    return base + log2_sum_sq(b, c), base + log2_sum_sq(b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from([2, 3, 8]), k=st.integers(-500, 500),
       j=st.integers(-600, 600), snr_db=st.floats(0.0, 3000.0),
       pair=st.sampled_from(["random", "parallel", "aligned"]),
       seed=st.integers(0, 2 ** 32 - 1))
# the beams once read NaN at 1600 dB, and at gains of 2^-564 (the Gram
# term underflowed); parallel channels at the top of the range; pairs of
# unequal gains or exactly parallel were refused wherever power times the
# larger gain overflowed, and a weak user's power lost 8 digits through a
# product below the float range
@example(m=3, k=0, j=0, snr_db=1600.0, pair="random", seed=0)
@example(m=3, k=-282, j=0, snr_db=10.0, pair="random", seed=0)
@example(m=8, k=0, j=0, snr_db=3000.0, pair="parallel", seed=1)
@example(m=3, k=300, j=-400, snr_db=1000.0, pair="random", seed=2)
@example(m=3, k=400, j=0, snr_db=1000.0, pair="parallel", seed=3)
@example(m=8, k=500, j=-500, snr_db=3000.0, pair="aligned", seed=4)
@example(m=2, k=0, j=-263, snr_db=0.0, pair="random", seed=1)
# an optimum just above 2^-1024 and one just below it, where it once read
# 0; an optimum of 3 * 2^-1074, and one below the float's underflow, which
# reads 0
@example(m=3, k=-20, j=-500, snr_db=40.0, pair="random", seed=0)
@example(m=3, k=-20, j=-500, snr_db=36.0, pair="random", seed=0)
@example(m=3, k=-45, j=-500, snr_db=43.0, pair="random", seed=0)
@example(m=3, k=-45, j=-500, snr_db=20.0, pair="random", seed=0)
# norms 2^533 apart, where the weak user's squared coordinates were once
# subnormal and the design balanced the wrong channel
@example(m=3, k=0, j=-533, snr_db=0.0, pair="random", seed=3)
@example(m=3, k=0, j=-533, snr_db=1000.0, pair="random", seed=3)
def test_contract_at_every_scale(m, k, j, snr_db, pair, seed):
    # h1 scaled by 2^k, h2 by 2^(k + j), and 0 to 3000 dB: the reported
    # SINRs reach t_star on the budget with nothing over- or underflowing
    # into a warning. The call refuses only an optimum beyond a float's
    # range, so never an exactly parallel pair, whose optimum is below 1.
    # A "parallel" pair is parallel only to rounding; an "aligned" one lies
    # on the first axis, where the span coordinates make it exactly
    # parallel (b = 0). Every channel entry stays a normal float.
    assume(-1000 <= k + j <= 1000)
    rng = np.random.default_rng(seed)
    h1, h2 = random_pair(rng, m)
    if pair == "aligned":
        h1[1:] = 0.0
    if pair != "random":
        h2 = (0.5 - 1j) * h1
    h1, h2 = math.ldexp(1.0, k) * h1, math.ldexp(1.0, k + j) * h2
    power = 10.0 ** (snr_db / 10.0)
    low, high = log2_optimum_scales(h1, h2, power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = max_min_sinr(h1, h2, power)
        except ContractViolationError:            # t_star overflows
            assert high > 1022
            return
    t = sol.t_star
    if t == 0.0 and j:
        # an optimum below the float's underflow reads 0; the margin is
        # the log2 estimate's own
        assert low < -1072
        return
    assert 0.0 < t < math.inf
    if pair == "aligned":
        assert t <= 1.0
    assert min(sol.sinr1, sol.sinr2) >= t * (1 - 1e-9)
    assert abs(sol.sinr1 - sol.sinr2) <= 1e-9 * t
    used = np.vdot(sol.b1, sol.b1).real + np.vdot(sol.b2, sol.b2).real
    assert used <= power * (1 + 1e-12)
    assert np.all(np.isfinite(sol.b1)) and np.all(np.isfinite(sol.b2))
    if abs(j) > 500 and t < sys.float_info.min:
        # past 2^500 apart, a subnormal optimum's beam gains are subnormal
        # too, and keep too few bits to measure t
        return
    if snr_db + 20 * max(k, k + j) * math.log10(2) <= 200:
        # up to 200 dB above the noise the beams themselves reach t. Of
        # unequal gains, to within the beams' rounding: a float beam and
        # the span basis are exact to a few eps, so |h_i^H b_j| moves by
        # about eps ||h_i|| ||b_j||, which shows where a user's strong beam
        # leaks into a far stronger channel than its own
        for h, own, other in ((h1, sol.b1, sol.b2), (h2, sol.b2, sol.b1)):
            rounding = 0.0
            if j:
                leak = abs(np.vdot(h, other))
                rounding = 8 * np.finfo(float).eps * np.linalg.norm(h) \
                    * np.linalg.norm(other) * leak / (leak ** 2 + 1)
            assert sinr(h, own, other, 1.0) >= t * (1 - 1e-9 - rounding)


@pytest.mark.parametrize("m, k, j, snr_db, seed", [
    (8, 27, -17, 20.95096565913349, 2919083145),
    (2, 29, -15, 8.793014445107183, 2063397120),
])
def test_rounded_exact_beams_need_the_rounding_allowance(m, k, j, snr_db,
                                                         seed):
    # the optimal beams built in mpmath and rounded once to floats miss the
    # strict gate t (1 - 1e-9) by more than 1e-7 here, measured exactly;
    # they stay within test_contract_at_every_scale's allowance of
    # 8 eps ||h_i|| ||b_j|| leak / (leak^2 + 1), and so do max_min_sinr's
    # beams. The allowance is the limit of any float beam, not of the
    # construction
    rng = np.random.default_rng(seed)
    h1, h2 = random_pair(rng, m)
    h1, h2 = math.ldexp(1.0, k) * h1, math.ldexp(1.0, k + j) * h2
    power = 10.0 ** (snr_db / 10.0)
    b1, b2, t = exact_max_min_beams(h1, h2, power)
    sol = max_min_sinr(h1, h2, power)
    assert sol.t_star == pytest.approx(float(t), rel=1e-14)
    shortfall = []
    for h, own, other, sol_own, sol_other in ((h1, b1, b2, sol.b1, sol.b2),
                                              (h2, b2, b1, sol.b2, sol.b1)):
        leak = abs(np.vdot(h, other))
        rounding = 8 * np.finfo(float).eps * np.linalg.norm(h) \
            * np.linalg.norm(other) * leak / (leak ** 2 + 1)
        shortfall.append(float(1 - exact_sinr(h, own, other) / t))
        assert shortfall[-1] <= 1e-9 + rounding
        assert exact_sinr(h, sol_own, sol_other) >= t * (1 - 1e-9 - rounding)
    assert max(shortfall) > 1e-7
