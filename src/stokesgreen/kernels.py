"""Closed-form Stokes kernels used as oracles for near-pole behavior."""

from __future__ import annotations

import numpy as np


def oseen_tensor(rvec):
    """Free-space Stokeslet U_ij(r) = (8 pi)^-1 (delta_ij/|r| + r_i r_j/|r|^3).

    ``rvec`` has shape (..., 3); returns shape (..., 3, 3).  Singular at 0.
    """
    r = np.asarray(rvec, dtype=float)
    d = np.linalg.norm(r, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        eye = np.eye(3) / d[..., None, None]
        dyad = r[..., :, None] * r[..., None, :] / d[..., None, None] ** 3
    return (eye + dyad) / (8.0 * np.pi)


def stokeslet_pressure(rvec):
    """Pressure kernel P_j(r) = r_j / (4 pi |r|^3) paired with the Stokeslet."""
    r = np.asarray(rvec, dtype=float)
    d = np.linalg.norm(r, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return r / (4.0 * np.pi * d[..., None] ** 3)


def normalized_stokeslet(domain, y):
    """Stokeslet around a pole, shifted to zero mean over the domain.

    The Green function carries the normalization ``int_Omega G dx = 0``, so
    the comparable closed-form reference at cell centers is
    ``U(x - y) - (U(. - y))_Omega``.  A cell centred on the pole is set to
    zero and the other cells are shifted by their own mean, so the cells
    sum to zero.  Returns shape (ncells, 3, 3).
    """
    rel = domain.cell_centers - np.asarray(y, dtype=float)
    U = oseen_tensor(rel)
    finite = np.isfinite(U).all(axis=(1, 2))
    U[~finite] = 0.0
    U[finite] -= U[finite].mean(axis=0)
    return U
