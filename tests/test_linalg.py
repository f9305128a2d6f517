import numpy as np
import pytest

from relayarq.channel import (MAX_ANTENNAS, ContractViolationError,
                              span_coords)
from relayarq.relay_multi import max_min_sinr
from relayarq.relay_single import solve_single_user_beamformer

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


def test_span_coords_flattens_each_channel():
    # a channel may come as (M,), (M, 1) or (1, M), real or complex: each
    # is the same length-M vector
    rng = np.random.default_rng(19)
    g1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g2 = rng.standard_normal(4)
    want = span_coords(g1, g2)
    for shape in ((4, 1), (1, 4)):
        got = span_coords(g1.reshape(shape), g2.reshape(shape))
        assert got[0].shape == (4, 2)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("shapes", [((3,), (4,)), ((3, 1), (1, 4)),
                                    ((2, 2), (3,))])
def test_span_coords_refuses_unequal_lengths(shapes):
    g1, g2 = (np.ones(shape) for shape in shapes)
    with pytest.raises(ContractViolationError,
                       match="relay channels must have equal length"):
        span_coords(g1, g2)


@pytest.mark.parametrize("design", [
    lambda g1, g2: solve_single_user_beamformer(g1, g2, 1.0),
    lambda g1, g2: max_min_sinr(g1, g2, 1.0)], ids=["single", "multi"])
def test_relay_designs_refuse_an_antenna_count_no_config_has(design):
    # a relay has 1 to MAX_ANTENNAS antennas, as SystemConfig's M does: an
    # empty pair or one past the ceiling is refused, and the ceiling solves
    for m in (0, MAX_ANTENNAS + 1):
        with pytest.raises(ContractViolationError,
                           match="relay antennas must"):
            design(np.ones(m), np.ones(m))
    rng = np.random.default_rng(23)
    g1, g2 = (rng.standard_normal(MAX_ANTENNAS) for _ in range(2))
    design(g1, g2)
