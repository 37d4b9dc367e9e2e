"""Tolerances, input validation and thin wrappers over numpy's LAPACK.

Everything operates on plain float64 numpy arrays.  The decompositions
(QR, symmetric eigenvalues, SVD, LU determinant) are LAPACK's, reached
through numpy; the wrappers here add the package's conventions: validated
2-D input, descending order, sign-fixed QR factors and typed errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClampError, NotSymmetricError, RankDeficientError

# Cosines/eigenvalues may leave [0, 1] by roundoff; beyond this it is a bug.
CLAMP_SLACK = 1e-8


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical thresholds used across the package.

    eps_orth   max-norm bound on orthonormality residuals Q^T Q - I
    eps_eig    bound on eigenvalue / singular-value residuals
    eps_angle  angles below this many radians count as zero
    """

    eps_orth: float = 1e-10
    eps_eig: float = 1e-9
    eps_angle: float = 1e-7

    def __post_init__(self) -> None:
        for name in ("eps_orth", "eps_eig", "eps_angle"):
            value = getattr(self, name)
            if not 0.0 < value < 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")


DEFAULT_TOL = TolerancePolicy()


def as_matrix(a) -> np.ndarray:
    """Return `a` as a float64 2-D array, rejecting NaN/Inf and empty shapes."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def clamp_unit_interval(x, slack: float = CLAMP_SLACK):
    """Clamp to [0, 1] elementwise; excursions beyond `slack` are hard errors."""
    x = np.asarray(x, dtype=float)
    outside = (x < -slack) | (x > 1.0 + slack)
    if np.any(outside):
        bad = float(x[outside][0])
        raise ClampError(f"value {bad!r} is too far outside [0, 1] to be roundoff")
    return np.clip(x, 0.0, 1.0)


def orthonormalize(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column span of `a`: the Q of a QR with diag R > 0.

    Column order (hence span and leading signs) is preserved.  Raises
    RankDeficientError when a column collapses onto the span of its
    predecessors, i.e. |R_jj| <= eps_orth * max(1, |a_j|).
    """
    m = as_matrix(a)
    n, k = m.shape
    if k > n:
        raise RankDeficientError(f"{k} columns cannot be independent in R^{n}")
    q, r = np.linalg.qr(m)
    diag = np.diag(r)
    dependent = np.abs(diag) <= tol.eps_orth * np.maximum(1.0, np.linalg.norm(m, axis=0))
    if np.any(dependent):
        raise RankDeficientError(f"column {int(np.argmax(dependent))} is numerically dependent")
    return q * np.sign(diag)


def symmetric_eigenvalues(s, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending."""
    a = as_matrix(s)
    if a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"matrix is not square: {a.shape}")
    if float(np.max(np.abs(a - a.T))) > tol.eps_orth:
        raise NotSymmetricError("matrix is not symmetric within eps_orth")
    return np.linalg.eigvalsh(0.5 * (a + a.T))[::-1]


def singular_values(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Singular values of `a`, sorted descending (min(rows, cols) of them)."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def determinant(a) -> float:
    """Determinant of a square matrix (LAPACK LU)."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got {m.shape}")
    return float(np.linalg.det(m))
