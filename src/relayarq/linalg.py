"""Small complex linear-algebra kernel used throughout the package.

Projections and null bases are built from Householder reflectors and
explicit inner products, so every result is deterministic in its inputs.
"""

import numpy as np

from .errors import DegenerateInputError


def conjT(a: np.ndarray) -> np.ndarray:
    return a.conj().T


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
