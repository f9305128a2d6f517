import numpy as np
import pytest

from relayarq.errors import ContractViolationError, DegenerateInputError, DimensionError
from relayarq.linalg import span_coords

from _oracles import conjT, kron_identity, null_basis, unvec, vec
from _sdp_oracle import herm_eig


def test_herm_eig_two_by_two_closed_form():
    # eigenvalues of [[2, i], [-i, 2]] are 2 +/- 1
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    eig = herm_eig(a)
    assert np.allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)


def test_herm_eig_reconstructs_and_orders():
    rng = np.random.default_rng(3)
    for m in (2, 3, 5, 8):
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = (z + conjT(z)) / 2
        eig = herm_eig(a)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
        assert np.allclose(eig.eigenvectors @ np.diag(eig.eigenvalues) @ conjT(eig.eigenvectors), a, atol=1e-10)
        assert np.allclose(conjT(eig.eigenvectors) @ eig.eigenvectors, np.eye(m), atol=1e-10)


def test_herm_eig_deterministic_phases():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (z + conjT(z)) / 2
    u1 = herm_eig(a).eigenvectors
    u2 = herm_eig(a.copy()).eigenvectors
    assert np.array_equal(u1, u2)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_null_basis_properties():
    rng = np.random.default_rng(7)
    for m in (2, 3, 6):
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        u = null_basis(h)
        assert u.shape == (m, m - 1)
        assert np.linalg.norm(conjT(u) @ h) < 1e-12 * np.linalg.norm(h)
        assert np.allclose(conjT(u) @ u, np.eye(m - 1), atol=1e-12)


def test_null_basis_zero_vector_rejected():
    with pytest.raises(DegenerateInputError):
        null_basis(np.zeros(3, dtype=complex))


def test_kron_identity_matches_numpy():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(kron_identity(4, a), np.kron(np.eye(4), a))


def test_vec_is_column_stacking():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert np.array_equal(unvec(vec(a), 3, 5), a)


def test_unvec_size_mismatch():
    with pytest.raises(DimensionError):
        unvec(np.zeros(5), 2, 3)


def test_vec_kron_trace_identity():
    # tr(C X) with X = x x^H equals x^H C x; the stacked form the
    # single-user reference solves must agree: vec(B)^H (I kron C) vec(B)
    # = tr(C B B^H)
    rng = np.random.default_rng(13)
    m, s = 3, 2
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    c = (z + conjT(z)) / 2
    b = rng.standard_normal((m, s)) + 1j * rng.standard_normal((m, s))
    lhs = np.vdot(vec(b), kron_identity(s, c) @ vec(b)).real
    rhs = np.trace(c @ b @ conjT(b)).real
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("case", ["random", "parallel", "zero_first",
                                  "zero_both", "one_antenna"])
def test_span_coords_reconstruct_the_pair(case):
    # g1 = a Q0 and g2 = c Q0 + b Q1 with Q orthonormal, also where the
    # pair spans less than a plane; one antenna leaves Q1 = 0 and b = 0
    rng = np.random.default_rng(17)
    m = 1 if case == "one_antenna" else 4
    g1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    g2 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if case == "parallel":
        g2 = (0.5 - 1j) * g1
    if case in ("zero_first", "zero_both"):
        g1 = np.zeros(m, dtype=complex)
    if case == "zero_both":
        g2 = np.zeros(m, dtype=complex)
    q, a, b, c = span_coords(g1, g2)
    assert q.shape == (m, 2)
    scale = np.linalg.norm(g1) + np.linalg.norm(g2)
    assert np.allclose(a * q[:, 0], g1, atol=1e-15 * scale)
    assert np.allclose(c * q[:, 0] + b * q[:, 1], g2, atol=1e-15 * scale)
    if m > 1:
        assert np.allclose(conjT(q) @ q, np.eye(2), atol=1e-15)
    else:
        assert b == 0 and not q[:, 1].any()
    assert abs(a) ** 2 == pytest.approx(np.vdot(g1, g1).real, rel=1e-14)
    assert abs(b) ** 2 + abs(c) ** 2 == pytest.approx(np.vdot(g2, g2).real,
                                                       rel=1e-14)
