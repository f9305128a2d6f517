import numpy as np
import pytest

from relayarq.errors import ContractViolationError

from _oracles import cn_vector
from _sdp_oracle import (
    SdpInstance,
    SdpOutcome,
    _basis,
    _mat,
    _pack,
    _theta,
    solve_feasibility,
)


def make_instance(rng, m=3, t_frac=0.3, power=20.0, noise_var=1.0):
    h1 = cn_vector(rng, m, 4.0)
    h2 = cn_vector(rng, m, 4.0)
    c1 = np.outer(h1, h1.conj())
    c2 = np.outer(h2, h2.conj())
    b_hi = power * min(np.linalg.norm(h1) ** 2, np.linalg.norm(h2) ** 2) / noise_var
    return SdpInstance(dim=m, C1=c1, C2=c2, t=t_frac * b_hi,
                       noise_var=noise_var, power=power), b_hi


def make_feasible_instance(rng, m=3, t_frac=0.8, power=20.0, noise_var=1.0):
    """Target set below a zero-forcing floor, so feasibility is certain."""
    h1 = cn_vector(rng, m, 4.0)
    h2 = cn_vector(rng, m, 4.0)

    def zf_gain(target, protect):
        p = protect / np.linalg.norm(protect)
        proj = target - p * np.vdot(p, target)
        return float(np.vdot(proj, proj).real)

    floor = 0.5 * power * min(zf_gain(h1, h2), zf_gain(h2, h1)) / noise_var
    return SdpInstance(dim=m, C1=np.outer(h1, h1.conj()),
                       C2=np.outer(h2, h2.conj()), t=t_frac * floor,
                       noise_var=noise_var, power=power)


def gaps(inst, x1, x2):
    g1 = np.trace(inst.C1 @ x1).real - inst.t * (inst.noise_var + np.trace(inst.C1 @ x2).real)
    g2 = np.trace(inst.C2 @ x2).real - inst.t * (inst.noise_var + np.trace(inst.C2 @ x1).real)
    used = np.trace(x1).real + np.trace(x2).real
    return g1, g2, used


# ---------------------------------------------------------------------------
# real parameterization
# ---------------------------------------------------------------------------

def test_pack_mat_round_trip():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        iu, _ = _basis(d)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (z + z.conj().T) / 2
        assert np.allclose(_mat(_pack(h, d, iu), d, iu), h, atol=1e-13)


def test_theta_is_trace_pairing():
    # theta(G) . p == tr(G X(p)) for every parameter vector p
    rng = np.random.default_rng(1)
    d = 3
    iu, _ = _basis(d)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = (z + z.conj().T) / 2
    p = rng.standard_normal(d * d)
    x = _mat(p, d, iu)
    assert np.trace(g @ x).real == pytest.approx(float(_theta(g, d, iu) @ p), rel=1e-12)


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------

def test_instance_rejects_bad_inputs():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ContractViolationError):
        SdpInstance(dim=2, C1=np.array([[0, 1], [0, 0]], dtype=complex),
                    C2=eye, t=1.0, noise_var=1.0, power=1.0)
    with pytest.raises(ContractViolationError):
        SdpInstance(dim=2, C1=-eye, C2=eye, t=1.0, noise_var=1.0, power=1.0)
    with pytest.raises(ContractViolationError):
        SdpInstance(dim=2, C1=eye, C2=eye, t=-1.0, noise_var=1.0, power=1.0)
    with pytest.raises(ContractViolationError):
        SdpInstance(dim=2, C1=eye, C2=eye, t=1.0, noise_var=0.0, power=1.0)
    with pytest.raises(ContractViolationError):
        SdpInstance(dim=3, C1=eye, C2=eye, t=1.0, noise_var=1.0, power=1.0)


# ---------------------------------------------------------------------------
# solve behavior
# ---------------------------------------------------------------------------

def test_zero_target_is_feasible():
    inst, _ = make_instance(np.random.default_rng(2), t_frac=0.0)
    out = solve_feasibility(inst)
    assert out.feasible
    assert out.slack > 0


def test_target_above_cap_is_infeasible():
    # even with all power on one user, SINR cannot exceed P ||h||^2 / noise
    inst, b_hi = make_instance(np.random.default_rng(3), t_frac=0.0)
    hard = SdpInstance(dim=inst.dim, C1=inst.C1, C2=inst.C2, t=1.05 * b_hi,
                       noise_var=inst.noise_var, power=inst.power)
    out = solve_feasibility(hard)
    assert not out.feasible


def test_feasible_certificate_is_self_consistent():
    rng = np.random.default_rng(4)
    for _ in range(20):
        inst = make_feasible_instance(rng, t_frac=float(rng.uniform(0.3, 0.95)))
        out = solve_feasibility(inst)
        assert out.feasible
        g1, g2, used = gaps(inst, out.X1, out.X2)
        scale = inst.power * max(np.linalg.norm(inst.C1, 2), np.linalg.norm(inst.C2, 2))
        # the reported slack is a proven lower bound on the actual margin
        assert min(g1, g2) >= out.slack - 1e-7 * scale
        assert min(g1, g2) > 0
        assert used <= inst.power * (1 + 1e-9)
        # iterates are Hermitian PSD
        for x in (out.X1, out.X2):
            assert np.linalg.norm(x - x.conj().T) < 1e-10 * max(1.0, np.linalg.norm(x))
            assert np.linalg.eigvalsh(x)[0] > -1e-12 * inst.power


def test_verdict_mode_agrees_with_full_solve():
    rng = np.random.default_rng(5)
    for _ in range(40):
        inst, _ = make_instance(rng, t_frac=float(rng.uniform(0.05, 1.2)))
        full = solve_feasibility(inst, verdict_only=False)
        quick = solve_feasibility(inst, verdict_only=True)
        assert quick.feasible == full.feasible


def test_warm_start_preserves_verdict():
    rng = np.random.default_rng(6)
    for _ in range(10):
        inst, b_hi = make_instance(rng, t_frac=0.3)
        prev = solve_feasibility(inst, verdict_only=True)
        for frac in (0.32, 0.36):
            nxt = SdpInstance(dim=inst.dim, C1=inst.C1, C2=inst.C2,
                              t=frac * b_hi, noise_var=inst.noise_var,
                              power=inst.power)
            cold = solve_feasibility(nxt, verdict_only=True)
            warm = solve_feasibility(nxt, verdict_only=True, warm_start=prev)
            assert warm.feasible == cold.feasible
            prev = warm


def test_outcome_reports_iterations_and_mu():
    inst, _ = make_instance(np.random.default_rng(7), t_frac=0.2)
    out = solve_feasibility(inst)
    assert isinstance(out, SdpOutcome)
    assert out.iterations > 0
    assert out.mu >= 0
