"""Tolerances, input validation and orthonormalization.

Everything operates on plain float64 numpy arrays.  The one decomposition
here, QR, is LAPACK's, reached through numpy; `orthonormalize` adds the
package's conventions: validated 2-D input, R with a positive diagonal and
a typed error for dependent columns.  The SVDs and determinants of the
angle and metric kernels call numpy directly.

One threshold is a user choice: `eps_angle`, the angle in radians below
which a principal angle counts as zero (the CLI's --tol).  Functions that
threshold angles take it as a parameter defaulting to EPS_ANGLE and check it
with `check_eps_angle`; verdict thresholds go through `check_tolerance`.  The
orthonormality bound EPS_ORTH and CLAMP_SLACK, the roundoff allowed above the
cosine bound 1 + k EPS_ORTH that it implies, are fixed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RankDeficientError

# Zero for orthonormal data: entrywise for residuals Q^T Q - I and sign-convention
# pivots, and the largest principal angle (radians) at which family members coincide.
EPS_ORTH = 1e-10
# Default eps_angle: principal angles below this many radians count as zero.
EPS_ANGLE = 1e-7
# Cosines may exceed 1 + k EPS_ORTH by roundoff; beyond this it is a bug.
CLAMP_SLACK = 1e-8


def check_eps_angle(eps_angle: float) -> float:
    """Return `eps_angle` if it lies in (0, 1e-2); ValueError otherwise (NaN included)."""
    if not 0.0 < eps_angle < 1e-2:
        raise ValueError(f"eps_angle must lie in (0, 1e-2), got {eps_angle!r}")
    return eps_angle


def check_tolerance(tol: float) -> float:
    """Return the verdict threshold `tol` if it is finite and >= 0; ValueError otherwise."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


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


def orthonormality_residuals(reps) -> np.ndarray:
    """max |U^T U - I| per member of an (..., n, k) stack; NaN or inf entries fail <= EPS_ORTH."""
    reps = np.asarray(reps, dtype=float)
    gram = np.swapaxes(reps, -1, -2) @ reps
    # I comes off the diagonal in place: np.eye(k) would be sized by k alone,
    # which an empty stack does not bound
    np.einsum("...ii->...i", gram)[...] -= 1.0
    return np.abs(gram).max(axis=(-2, -1))


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
    q, independent = orthonormalize_stack(m)
    if not independent:
        raise RankDeficientError("columns are numerically dependent")
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
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    dependent = np.abs(diag) <= EPS_ORTH * np.maximum(1.0, np.sqrt((a * a).sum(axis=-2)))
    return q * np.sign(diag)[..., None, :], ~dependent.any(axis=-1)

