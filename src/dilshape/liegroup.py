"""Rotation-group primitives: checks, exponential, principal log, distance.

Group elements are plain orthogonal ndarrays with determinant +1, algebra
elements are skew-symmetric ndarrays.  The pipeline needs the exponential
and the logarithm; distances use the flat trace form trace(A B^T) on the
algebra, bi-invariant on the group, with no extra scale factor, so dim 2
(where the Killing form vanishes) uses the same formulas as everything else.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .errors import (
    DimMismatch,
    NearCutLocus,
    NotOrthogonal,
    NotSkew,
    OutOfRange,
    WrongComponent,
)

CUT_MARGIN = 1e-6
# The one tolerance of every rotation and skew check: curves and sequences alike.
ORTHOGONALITY_TOL = 1e-9
SKEW_TOL = 1e-10


def project_skew(m) -> np.ndarray:
    """Skew part (m - m^T) / 2 of a matrix or of each matrix in a stack."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - np.swapaxes(m, -1, -2))


def ensure_skew(m) -> np.ndarray:
    """Check that m, or every matrix of a stack (..., d, d), is skew within SKEW_TOL."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise OutOfRange("matrix entries must be finite")
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    gap = np.abs(m + np.swapaxes(m, -1, -2)).max(axis=(-2, -1), initial=0.0)
    if (gap > SKEW_TOL * scale).any():
        raise NotSkew("matrix is not skew-symmetric within tolerance")
    return project_skew(m)


def ensure_rotation(g) -> np.ndarray:
    """Check that g, or every matrix of a stack (..., d, d), is orthogonal."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise DimMismatch(f"expected a square matrix, got shape {g.shape}")
    # No entry of an orthogonal matrix exceeds one; checking that first
    # rejects NaN and keeps g g^T from overflowing.
    bounded = float(np.abs(g).max(initial=0.0)) <= 1.0 + ORTHOGONALITY_TOL
    if not bounded or float(np.abs(g @ np.swapaxes(g, -1, -2)
                                   - np.eye(g.shape[-1])).max(initial=0.0)) > ORTHOGONALITY_TOL:
        raise NotOrthogonal("matrix is not orthogonal within tolerance")
    return g


def exp_group(omega) -> np.ndarray:
    """Exponential of a skew matrix, or of each in a stack; lands on rotations."""
    return expm(ensure_skew(omega))


def log_group(g) -> np.ndarray:
    """Principal logarithm of a rotation, or of each rotation in a stack.

    The symmetric part C = (g + g^T) / 2 and the skew part S = (g - g^T) / 2
    of an orthogonal g commute: on each rotation plane C is cos(theta) and S
    is sin(theta) times the plane's unit generator.  So log g = S f(C) with
    f(cos theta) = theta / sin(theta), which is smooth in C (f = 1 at
    theta = 0) and is evaluated through one eigendecomposition of C per
    matrix, however the angles repeat.

    Raises
    ------
    WrongComponent
        det(g) = -1; no logarithm exists in the algebra.
    NearCutLocus
        Some rotation angle is >= pi - CUT_MARGIN, where the principal
        branch becomes unstable.
    """
    g = ensure_rotation(g)
    if (np.linalg.det(g) < 0.0).any():
        raise WrongComponent("determinant is -1")
    gt = np.swapaxes(g, -1, -2)
    cos, vecs = np.linalg.eigh(0.5 * (g + gt))
    # S v = sin(theta) u with u a unit vector of v's plane; taking sin(theta)
    # from S itself keeps S f(C) accurate near pi, where cos(theta) is not.
    sv = 0.5 * (g - gt) @ vecs
    sin = np.sqrt(np.einsum("...ij,...ij->...j", sv, sv))
    theta = np.arctan2(sin, cos)
    worst = float(theta.max(initial=0.0))
    if worst >= np.pi - CUT_MARGIN:
        raise NearCutLocus(f"rotation angle {worst:.9f} within {CUT_MARGIN:g} of pi")
    f = np.divide(theta, sin, out=np.ones_like(theta), where=sin > 0.0)
    return project_skew((sv * f[..., None, :]) @ np.swapaxes(vecs, -1, -2))


def geodesic_distance(g0, g1) -> float:
    """Length of the connecting geodesic: Frobenius norm of log(g1 g0^T)."""
    g0 = ensure_rotation(g0)
    g1 = ensure_rotation(g1)
    omega = log_group(g1 @ g0.T)
    return float(np.sqrt(np.sum(omega * omega)))
