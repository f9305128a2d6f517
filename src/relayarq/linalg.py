"""Projection kernel shared by the two relay designs."""

import numpy as np


def sq_norm(v: np.ndarray) -> np.ndarray:
    """||v||^2 as the sum of re^2 + im^2, batched over leading axes
    (vectors along the last axis)."""
    return np.sum(v.real ** 2 + v.imag ** 2, axis=-1)


def project_off(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Component of v orthogonal to u, v - u (u^H v) / ||u||^2.

    Batched over leading axes (vectors along the last axis). Where u is the
    zero vector there is nothing to project off, and v comes back unchanged.
    """
    uu = sq_norm(u)[..., None]
    uv = np.sum(u.conj() * v, axis=-1, keepdims=True)
    return v - u * (uv / np.where(uu > 0, uu, 1.0))
