"""The test suite's own helpers in ``_oracles``: the linear algebra the
reference designs build on."""

import numpy as np
import pytest

from relayarq.channel import ContractViolationError

from _oracles import conjT, kron_identity, null_basis, unvec, vec


def test_null_basis_properties():
    rng = np.random.default_rng(7)
    for m in (2, 3, 6):
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        u = null_basis(h)
        assert u.shape == (m, m - 1)
        assert np.linalg.norm(conjT(u) @ h) < 1e-12 * np.linalg.norm(h)
        assert np.allclose(conjT(u) @ u, np.eye(m - 1), atol=1e-12)


def test_null_basis_zero_vector_rejected():
    with pytest.raises(ContractViolationError, match="zero vector"):
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
    with pytest.raises(ContractViolationError, match="cannot reshape"):
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
