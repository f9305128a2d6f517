"""Small complex linear-algebra kernel used throughout the package.

Hermitian eigenpairs come back sorted by descending eigenvalue, and each
eigenvector is phase-fixed so its largest-magnitude entry is real positive.
That makes every decomposition in the package deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, DimensionError

HERM_TOL = 1e-10        # relative Hermiticity / reconstruction tolerance


def conjT(a: np.ndarray) -> np.ndarray:
    return a.conj().T


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition A = U diag(w) U^H with w descending."""

    eigenvalues: np.ndarray   # real, shape (n,), descending
    eigenvectors: np.ndarray  # unitary, shape (n, n), column k pairs with w[k]


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    k = np.argmax(np.abs(u), axis=0)
    anchors = u[k, np.arange(u.shape[1])]
    mags = np.abs(anchors)
    # zero column cannot occur for a unitary factor; guard anyway
    phases = np.where(mags > 0, anchors / np.where(mags > 0, mags, 1.0), 1.0)
    return u / phases


def herm_eig(a: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises ContractViolationError if ``a`` deviates from Hermitian by more
    than HERM_TOL relative to its Frobenius norm, or if the reconstruction
    residual exceeds the same bound.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - conjT(a)) > HERM_TOL * max(scale, 1.0):
        raise ContractViolationError("matrix is not Hermitian")
    w, u = np.linalg.eigh((a + conjT(a)) / 2)
    order = np.argsort(w)[::-1]               # descending, stable for ties
    w = w[order]
    u = _fix_phases(u[:, order])
    resid = np.linalg.norm(u @ np.diag(w) @ conjT(u) - a)
    if resid > HERM_TOL * max(scale, 1.0):
        raise ContractViolationError(
            f"eigendecomposition residual {resid:.3e} exceeds contract")
    return HermitianEig(w, u)


def project_off(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Component of v orthogonal to u, v - u (u^H v) / ||u||^2.

    Batched over leading axes (vectors along the last axis). Where u is the
    zero vector there is nothing to project off, and v comes back unchanged.
    """
    uu = np.sum(u.real ** 2 + u.imag ** 2, axis=-1, keepdims=True)
    uv = np.sum(u.conj() * v, axis=-1, keepdims=True)
    return v - u * (uv / np.where(uu > 0, uu, 1.0))


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
        raise DegenerateInputError("cannot build a null basis for the zero vector")
    w = h / nrm
    alpha = w[0] / abs(w[0]) if abs(w[0]) > 0 else 1.0
    v = w.copy()
    v[0] += alpha                              # reflector direction w + alpha e1
    refl = np.eye(m, dtype=complex) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    return refl[:, 1:]
