"""Tolerances, input validation and thin wrappers over numpy's LAPACK.

Everything operates on plain float64 numpy arrays.  The decompositions
(QR, symmetric eigenvalues, SVD, LU determinant) are LAPACK's, reached
through numpy; the wrappers here add the package's conventions: validated
2-D input, descending order, sign-fixed QR factors and typed errors.

One threshold is a user choice: `eps_angle`, the angle in radians below
which a principal angle counts as zero (the CLI's --tol).  Functions that
threshold angles take it as a parameter defaulting to EPS_ANGLE and the CLI
checks it with `check_eps_angle`.  The orthonormality bound EPS_ORTH and
CLAMP_SLACK are fixed.
"""

from __future__ import annotations

import numpy as np

from .errors import ClampError, NotSymmetricError, RankDeficientError

# Entrywise zero for orthonormal data: residuals Q^T Q - I, symmetry defects,
# projector gaps between family members and sign-convention pivots.
EPS_ORTH = 1e-10
# Default eps_angle: principal angles below this many radians count as zero.
EPS_ANGLE = 1e-7
# Cosines/eigenvalues may leave [0, 1] by roundoff; beyond this it is a bug.
CLAMP_SLACK = 1e-8


def check_eps_angle(eps_angle: float) -> float:
    """Return `eps_angle` if it lies in (0, 1e-2); ValueError otherwise (NaN included)."""
    if not 0.0 < eps_angle < 1e-2:
        raise ValueError(f"eps_angle must lie in (0, 1e-2), got {eps_angle!r}")
    return eps_angle


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


def clamp_unit_interval(x):
    """Clamp to [0, 1] elementwise; excursions beyond CLAMP_SLACK are hard errors."""
    x = np.asarray(x, dtype=float)
    outside = (x < -CLAMP_SLACK) | (x > 1.0 + CLAMP_SLACK)
    if np.any(outside):
        bad = float(x[outside][0])
        raise ClampError(f"value {bad!r} is too far outside [0, 1] to be roundoff")
    return np.clip(x, 0.0, 1.0)


def _signed_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q of a (..., n, k) stack with diag R > 0, and the (..., k) dependent-column mask."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    dependent = np.abs(diag) <= EPS_ORTH * np.maximum(1.0, np.sqrt((a * a).sum(axis=-2)))
    return q * np.sign(diag)[..., None, :], dependent


def orthonormalize(a) -> np.ndarray:
    """Orthonormal basis of the column span of `a`: the Q of a QR with diag R > 0.

    Column order (hence span and leading signs) is preserved.  Raises
    RankDeficientError when a column collapses onto the span of its
    predecessors, i.e. |R_jj| <= EPS_ORTH * max(1, |a_j|).
    """
    m = as_matrix(a)
    n, k = m.shape
    if k > n:
        raise RankDeficientError(f"{k} columns cannot be independent in R^{n}")
    q, dependent = _signed_qr(m)
    if np.any(dependent):
        raise RankDeficientError(f"column {int(np.argmax(dependent))} is numerically dependent")
    return q


def orthonormalize_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """`orthonormalize` over a (..., n, k) stack with k <= n, without raising.

    Returns the Q stack and a (...,) mask that is False where `orthonormalize`
    would raise RankDeficientError; the Q of such an entry is finite but
    meaningless.  A single column is divided by its norm directly (R is the
    norm, and the rank rule reduces to norm <= EPS_ORTH), which skips the
    call overhead of LAPACK's QR.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 1:
        norm = np.sqrt((a * a).sum(axis=-2, keepdims=True))
        return a / np.maximum(norm, EPS_ORTH), norm[..., 0, 0] > EPS_ORTH
    q, dependent = _signed_qr(a)
    return q, ~dependent.any(axis=-1)


def symmetric_eigenvalues(s) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending."""
    a = as_matrix(s)
    if a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"matrix is not square: {a.shape}")
    if float(np.max(np.abs(a - a.T))) > EPS_ORTH:
        raise NotSymmetricError("matrix is not symmetric within eps_orth")
    return np.linalg.eigvalsh(0.5 * (a + a.T))[::-1]


def singular_values(a) -> np.ndarray:
    """Singular values of `a`, sorted descending (min(rows, cols) of them)."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def determinant(a) -> float:
    """Determinant of a square matrix (LAPACK LU)."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got {m.shape}")
    return float(np.linalg.det(m))
