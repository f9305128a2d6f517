"""Independent reference computations used by the test suite.

Everything here is deliberately written against the problem statements, not
against the package internals, so agreement is meaningful: dumb grids, plain
quadrature, Gil-Pelaez inversion of the characteristic function for the
interference outage at any antenna count, one closed form that only exists
for orthogonal channels, the max-min design built in mpmath from
uplink-downlink duality, the single-user relay design solved as the stacked
eigenproblem over vec(B) on a Householder null basis, the relay-ARQ
protocol judged one trial at a time by building both relay designs, and
the reduction of complex relay channels to the (A, B, C) the engine draws
as Gamma variates, and a two-sided duality certificate for the max-min
design's optimum. ``cdf_whole_line`` is no reference: it extends the
closed-form law, which the package takes on c >= 0 only, to the whole
line by swapping X and Y, so that the checks against the oracles can
cover both tails. A reference that cannot deliver its value raises
``NumericFailureError`` rather than returning a wrong one.
"""

import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad

from relayarq.channel import SystemConfig
from relayarq.errors import ContractViolationError
from relayarq.outage import cdf_diff_exp, outage_single_user
from relayarq.relay_multi import max_min_sinr
from relayarq.relay_single import solve_single_user_beamformer


class NumericFailureError(Exception):
    """A reference computation failed to converge.

    Carries whatever diagnostic payload the caller attached (iteration
    trace, residuals) in ``details``.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


def cn_vector(rng, m, var):
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.sqrt(var / 2.0) * z


def orthogonal_pair_optimum(h1, h2, power, noise_var):
    """Exact max-min SINR when the two user channels are orthogonal.

    Each beam points straight at its user, there is no cross term, and the
    optimum splits power to equalize p_i ||h_i||^2 / noise_var.
    """
    n1 = float(np.linalg.norm(h1) ** 2)
    n2 = float(np.linalg.norm(h2) ** 2)
    return power * n1 * n2 / (noise_var * (n1 + n2))


def brute_force_m2(h1, h2, power, noise_var, n_theta=141, n_alpha=161):
    """Grid search over rank-1 beam pairs for two antennas.

    Beam i is parameterized as sqrt(p_i) (cos(th) u_i + sin(th) e^{j phi} v_i)
    with u_i the unit own-channel direction and v_i its orthogonal complement.
    The mixing phase phi only enters the single cross term, so its optimal
    value is the one that anti-aligns the two contributions; that reduces the
    search to (th_1, th_2, power split).
    """
    h1 = np.asarray(h1, dtype=complex).reshape(-1)
    h2 = np.asarray(h2, dtype=complex).reshape(-1)

    def directions(h):
        u = h / np.linalg.norm(h)
        v = np.array([-np.conj(u[1]), np.conj(u[0])])
        return u, v

    u1, v1 = directions(h1)
    u2, v2 = directions(h2)
    n1 = np.linalg.norm(h1) ** 2
    n2 = np.linalg.norm(h2) ** 2
    # |h_j^H (cos u_i + sin e^{j phi} v_i)| minimized over phi
    a21, c21 = abs(np.vdot(h2, u1)), abs(np.vdot(h2, v1))
    a12, c12 = abs(np.vdot(h1, u2)), abs(np.vdot(h1, v2))

    th = np.linspace(0.0, np.pi / 2.0, n_theta)
    ct, st = np.cos(th), np.sin(th)
    sig1 = n1 * ct ** 2                  # times p1: signal at user 1
    sig2 = n2 * ct ** 2
    i21 = (a21 * ct - c21 * st) ** 2     # times p1: interference at user 2
    i12 = (a12 * ct - c12 * st) ** 2

    best = 0.0
    for alpha in np.linspace(0.0, 1.0, n_alpha):
        p1, p2 = alpha * power, (1.0 - alpha) * power
        s1 = p1 * sig1[:, None] / (noise_var + p2 * i12[None, :])
        s2 = p2 * sig2[None, :] / (noise_var + p1 * i21[:, None])
        best = max(best, float(np.minimum(s1, s2).max()))
    return best


def _mp_dot(x, y):
    """x^H y of two mpmath vectors, at the working precision."""
    return mpmath.fsum(mpmath.conj(a) * b for a, b in zip(x, y))


def exact_max_min_beams(h1, h2, power, noise_var=1.0, dps=50):
    """The max-min SINR design of float channels h1, h2, built in mpmath at
    ``dps`` digits from uplink-downlink duality: ``(b1, b2, t)``, the beams
    each rounded once to complex floats and the optimum t as an mpf.

    The dual uplink balances at q_i = power ||h_j||^2 / (||h1||^2 +
    ||h2||^2), where both MMSE receivers (noise I + q_j h_j h_j^H)^-1 h_i
    reach t. The downlink beams point along those receivers, with the
    powers that solve SINR_1 = SINR_2 = t, a 2 x 2 linear system.
    """
    with mpmath.workdps(dps):
        h = [[mpmath.mpc(complex(z)) for z in g] for g in (h1, h2)]
        n = [_mp_dot(g, g).real for g in h]
        q = [power * n[1] / (n[0] + n[1]), power * n[0] / (n[0] + n[1])]
        v = []
        for i in (0, 1):                 # Sherman-Morrison, times noise_var
            j = 1 - i
            s = q[j] * _mp_dot(h[j], h[i]) / (noise_var + q[j] * n[j])
            v.append([a - s * b for a, b in zip(h[i], h[j])])
        t = q[0] * _mp_dot(h[0], v[0]).real / noise_var
        v = [[a / mpmath.sqrt(_mp_dot(x, x).real) for a in x] for x in v]
        g = [[abs(_mp_dot(h[i], v[k])) ** 2 for k in (0, 1)] for i in (0, 1)]
        p = mpmath.lu_solve(mpmath.matrix([[g[0][0], -t * g[0][1]],
                                           [-t * g[1][0], g[1][1]]]),
                            mpmath.matrix([t * noise_var, t * noise_var]))
        beams = [np.array([complex(mpmath.sqrt(p[i]) * a) for a in v[i]])
                 for i in (0, 1)]
    return beams[0], beams[1], t


def dual_checks(h1, h2, q1, q2, t, power, noise_var, delta):
    """The three numbers that certify target t infeasible for the
    semidefinite relaxation when each is below zero (``duality_bracket``):
    the largest eigenvalues of Z1 and Z2, and P - t noise_var (lam1 +
    lam2), with lam_i = (1 + delta / 4) q_i / (noise_var t)."""
    c1, c2 = np.outer(h1, np.conj(h1)), np.outer(h2, np.conj(h2))
    eye = np.eye(len(h1))
    lam1, lam2 = ((1 + delta / 4) * q / noise_var / t for q in (q1, q2))
    return (np.linalg.eigvalsh(lam1 * c1 - t * lam2 * c2 - eye)[-1],
            np.linalg.eigvalsh(lam2 * c2 - t * lam1 * c1 - eye)[-1],
            power - t * noise_var * (lam1 + lam2))


def duality_bracket(h1, h2, power, noise_var, delta):
    """Certify that ``max_min_sinr``'s t* is the optimum of the semidefinite
    relaxation (SDR) to within a factor 1 +- delta, and return ``(sol,
    checks)``: the solution and ``dual_checks`` at t*(1 + delta).

    With C_i = h_i h_i^H and sigma^2 = noise_var, the SDR asks for X1, X2
    >= 0 with tr(X1) + tr(X2) <= P and the SINR rows

        tr(C_i X_i) - t tr(C_i X_j) >= t sigma^2,    i = 1, 2.

    Feasible at t*(1 - delta): the rank-one X_i = b_i b_i^H of ``sol.b1``
    and ``sol.b2`` meet both rows, where tr(C_i X_k) = |h_i^H b_k|^2, on
    power at most P (1 + 1e-12), the design's rounding allowance.

    Infeasible at t = t*(1 + delta): take the dual uplink powers p_i =
    (1 + delta / 4) q_i / sigma^2 of ``sol.q1, sol.q2`` and the multipliers
    lam_i = p_i / t, and form

        Z1 = lam1 C1 - t lam2 C2 - I,    Z2 = lam2 C2 - t lam1 C1 - I.

    A feasible X would give, by weak duality (the rows weighted by lam_i
    and summed, then tr(X1) + tr(X2) <= P),

        t sigma^2 (lam1 + lam2) <= tr(Z1 X1) + tr(Z2 X2) + P <= P,

    the second step wherever both Z_i are negative definite. So the
    largest eigenvalue of Z1, that of Z2 and P - t sigma^2 (lam1 + lam2),
    all below zero, rule every X out; no tolerance is allowed on any of
    the three. The last is -(delta / 4) P, since q1 + q2 = P. Z_i < 0 says
    that user i's uplink SINR at powers p, at most (1 + delta / 4) t*, is
    below t, by a margin of about 3 delta / 4 in the eigenvalue.
    """
    sol = max_min_sinr(h1, h2, power, noise_var=noise_var)
    low = sol.t_star * (1 - delta)
    for h, own, other in ((h1, sol.b1, sol.b2), (h2, sol.b2, sol.b1)):
        assert abs(np.vdot(h, own)) ** 2 \
            >= low * (abs(np.vdot(h, other)) ** 2 + noise_var), (
                f"the beams miss t* (1 - {delta:.0e}), t*={sol.t_star!r}")
    used = np.vdot(sol.b1, sol.b1).real + np.vdot(sol.b2, sol.b2).real
    assert used <= power * (1 + 1e-12), (used, power)
    checks = dual_checks(h1, h2, sol.q1, sol.q2, sol.t_star * (1 + delta),
                         power, noise_var, delta)
    assert max(checks) < 0, (
        f"no certificate at t* (1 + {delta:.0e}): {checks}, "
        f"t*={sol.t_star!r}")
    return sol, checks


def exact_sinr(h, own, other, noise_var=1.0, dps=50):
    """|h^H own|^2 / (|h^H other|^2 + noise_var) of float vectors, in
    mpmath at ``dps`` digits, as an mpf."""
    with mpmath.workdps(dps):
        h, own, other = ([mpmath.mpc(complex(z)) for z in x]
                         for x in (h, own, other))
        return (abs(_mp_dot(h, own)) ** 2
                / (abs(_mp_dot(h, other)) ** 2 + noise_var))


# ---------------------------------------------------------------------------
# characteristic-function route (any N): oracle for the closed-form outage
# ---------------------------------------------------------------------------

def characteristic_function(t, kappa: float, n: int) -> np.ndarray:
    """phi(t) = (1 - jt)^-n (1 + j kappa t)^-n of X - kappa Y, X and Y
    independent Gamma(n, 1)."""
    t = np.asarray(t, dtype=float)
    return ((1.0 - 1j * t) * (1.0 + 1j * kappa * t)) ** -n


def cf_inversion_cdf(c: float, kappa: float, n: int,
                     tol: float = 1e-7) -> float:
    """Pr{X - kappa Y < c} by Gil-Pelaez inversion of the characteristic
    function.

    The integrand decays like kappa^-n / t^(2n+1); the truncation point is
    chosen so the analytic tail bound stays below tol/10, and the quadrature
    error estimate is checked against tol as well.

    Valid domain: the integrand varies on the scales 1 and kappa at once,
    so kappa must lie within about six decades of 1, 1e-6 <= kappa <= 1e6
    (a rate of about 20 bit/s/Hz at unit variances). At n = 3 over that
    range, with c from -30 kappa to 30, it agrees with the closed form to
    1e-6; from about 3e6 on, quadrature fails for some c. At n = 1 the
    integrand decays only like 1/t^3, and the oscillation e^(-jtc) up to
    the horizon defeats the quadrature once |c| / sqrt(kappa) exceeds
    about 9. Every quadrature warning is raised as NumericFailureError
    rather than returned as a value: at unit variances, N = 3, P = 1e4 and
    R = 30 the quadrature warns and returns 0.5 where the outage is 1.
    """
    tail = tol / 10.0
    horizon = (1.0 / (2 * n * np.pi * tail)) ** (1.0 / (2 * n)) / np.sqrt(kappa)

    def integrand(t):
        return (np.exp(-1j * t * c) * characteristic_function(t, kappa, n)).imag / t

    details = {"kappa": kappa, "n": n, "c": c, "horizon": horizon}
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(integrand, 0.0, horizon, limit=2000,
                            epsabs=tol / 20.0, epsrel=1e-12)
        except IntegrationWarning as exc:
            raise NumericFailureError(
                f"characteristic-function quadrature failed: {exc}",
                details=details) from exc
    if err > tol:
        raise NumericFailureError(
            "characteristic-function quadrature did not converge",
            details={**details, "estimate": val, "error": err})
    return float(min(max(0.5 - val / np.pi, 0.0), 1.0))


def cdf_whole_line(c: float, kappa: float, n: int) -> float:
    """Pr{X - kappa Y < c} at any c, for 0 < kappa < inf, from the law
    ``cdf_diff_exp`` takes on c >= 0 only. Below 0 the event is
    Y - X / kappa > -c / kappa, X and Y swapped, so the law there is
    1 - F_(1/kappa)(-c / kappa) (the law has no atoms)."""
    if c >= 0:
        return cdf_diff_exp(c, kappa, n)
    return 1.0 - cdf_diff_exp(-c / kappa, 1.0 / kappa, n)


def diff_exp_args(cfg: SystemConfig) -> tuple:
    """Map a system configuration onto the law's (c, kappa, n) =
    (N noise_var gamma / (P var_direct), gamma var_cross / var_direct, N),
    formed left to right."""
    if cfg.var_direct <= 0 or cfg.var_cross <= 0:
        raise ContractViolationError("both channel variances must be positive here")
    gamma = 2.0 ** cfg.rate - 1.0
    return (cfg.N * cfg.noise_var * gamma / cfg.P / cfg.var_direct,
            gamma * cfg.var_cross / cfg.var_direct, cfg.N)


def cf_inversion_outage(cfg: SystemConfig, tol: float = 1e-7) -> float:
    """Interference outage for any antenna count N via CF inversion.

    Same valid domain as ``cf_inversion_cdf``, with kappa =
    (2^R - 1) var_cross / var_direct.
    """
    if 2.0 ** cfg.rate - 1.0 == 0.0:
        return 0.0
    if cfg.var_cross == 0:
        return outage_single_user(cfg)
    return cf_inversion_cdf(*diff_exp_args(cfg), tol=tol)


# ---------------------------------------------------------------------------
# stacked (vec) form of the single-user relay design
# ---------------------------------------------------------------------------

def conjT(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def null_basis(h: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of a single vector.

    Returns U of shape (M, M-1) with U^H h = 0 and U^H U = I, built from the
    Householder reflector that maps h onto the first coordinate axis. The
    construction is deterministic in the entries of h.
    """
    h = np.asarray(h, dtype=complex).reshape(-1)
    m = h.size
    nrm = np.linalg.norm(h)
    if nrm == 0.0:
        raise ContractViolationError("cannot build a null basis for the zero vector")
    w = h / nrm
    alpha = w[0] / abs(w[0]) if abs(w[0]) > 0 else 1.0
    v = w.copy()
    v[0] += alpha                              # reflector direction w + alpha e1
    refl = np.eye(m, dtype=complex) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    return refl[:, 1:]


def kron_identity(n: int, a: np.ndarray) -> np.ndarray:
    """I_n kron a."""
    if n < 1:
        raise ContractViolationError("identity factor must be at least 1x1")
    return np.kron(np.eye(n), np.asarray(a))


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(A X B) = (B^T kron A) vec(X)."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    v = np.asarray(v).reshape(-1)
    if v.size != rows * cols:
        raise ContractViolationError(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def solve_single_user_beamformer_full(g_protect, g_target, power, n_streams):
    """Zero-forcing relay design through the stacked MN-dimensional eigenproblem.

    Stacking columns turns B^H g_protect = 0 into (I kron g_p^H) vec(B) = 0,
    whose null space is spanned by V = I kron U with U an orthonormal basis
    of the complement of g_protect. The top eigenvector of
    V^H (I kron g_t g_t^H) V, unstacked, is an M x n_streams optimum B.
    """
    g_protect = np.asarray(g_protect, dtype=complex).reshape(-1)
    g_target = np.asarray(g_target, dtype=complex).reshape(-1)
    m = g_protect.size
    u = null_basis(g_protect)
    v = kron_identity(n_streams, u)           # MN x (M-1)N
    target_outer = np.outer(g_target, g_target.conj())
    a = v.conj().T @ kron_identity(n_streams, target_outer) @ v
    _, u = np.linalg.eigh(a)                   # ascending: the top pair is last
    return unvec(np.sqrt(power) * (v @ u[:, -1]), m, n_streams)


# ---------------------------------------------------------------------------
# relay ARQ, one trial at a time
# ---------------------------------------------------------------------------

def relay_gains(g):
    """(A, B, C) of relay channel pairs g, complex (n, 2, M), as float (n, 3).

    A = ||g1||^2, B = ||g2 - g1 (g1^H g2) / ||g1||^2||^2 (g2 off g1) and
    C = |g1^H g2|^2 / ||g1||^2; where g1 = 0, C = 0 and B = ||g2||^2.
    """
    g1, g2 = g[:, 0], g[:, 1]
    a = np.sum(np.abs(g1) ** 2, axis=-1)
    safe = np.where(a > 0, a, 1.0)
    inner = np.sum(g1.conj() * g2, axis=-1)
    b = np.sum(np.abs(g2 - g1 * (inner / safe)[:, None]) ** 2, axis=-1)
    return np.column_stack([a, b, np.abs(inner) ** 2 / safe])


def relay_trial_reference(cfg, e1, e2, g):
    """One relay-ARQ trial from explicit channels, by building the beams.

    e1, e2 are the trial's round-1 and round-2 BS power gains, shaped
    (2, 2) with e[i, j] = ||h_ij||^2 from BS j to user i; g is (2, M).
    Returns (round-1 success per user, mode name, delivered per user).
    """
    gamma = 2.0 ** cfg.rate - 1.0
    p_ant = cfg.P / cfg.N
    ok = tuple(p_ant * float(e1[i, i])
               >= gamma * (cfg.noise_var + p_ant * float(e1[i, 1 - i]))
               for i in (0, 1))
    if all(ok):
        return ok, "none", (True, True)
    if not any(ok):
        # both messages ride the relay; base stations stay silent
        sol = max_min_sinr(g[0], g[1], cfg.Pr_multi, noise_var=cfg.noise_var)
        return ok, "multiuser", (sol.sinr1 >= gamma, sol.sinr2 >= gamma)

    f = 0 if not ok[0] else 1             # the one failed user
    o = 1 - f
    final = [True, True]
    final[f] = False
    if g[f].any():
        b = solve_single_user_beamformer(g[o], g[f], cfg.Pr_single)
        interf = p_ant * float(e2[f, o])
        final[f] = bool(abs(np.vdot(b, g[f])) ** 2
                        / (cfg.noise_var + interf) >= gamma)
    return ok, "single-user", tuple(final)
