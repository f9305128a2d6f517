import numpy as np
import pytest

from relayarq.errors import ContractViolationError, DegenerateInputError, DimensionError
from relayarq.linalg import project_off

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


def test_project_off_batched():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    u = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    u[1, 0] = 0.0                              # nothing to project off
    w = project_off(v, u)
    assert w.shape == v.shape
    assert np.array_equal(w[1, 0], v[1, 0])
    for idx in np.ndindex(4, 2):
        if not u[idx].any():
            continue
        p = np.eye(3) - np.outer(u[idx], u[idx].conj()) / np.vdot(u[idx], u[idx])
        assert np.allclose(w[idx], p @ v[idx], atol=1e-14)
        assert abs(np.vdot(u[idx], w[idx])) < 1e-13
