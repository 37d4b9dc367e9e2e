"""Subspaces of R^n and the batched principal-angle kernel.

A subspace is held as an orthonormal n x k representative matrix.  Every
angle computation goes through `spectra`, which takes whole stacks of
representatives at once: the cosines are the singular values of the k x k
cross-Grams U^T V, the sines those of the residuals V - U U^T V, and each
angle is read from whichever of the two resolves it to full accuracy
(Bjorck & Golub 1973; Knyazev & Argentati 2002).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClampError, DimensionMismatchError, FullDimensionError
from .linalg import CLAMP_SLACK, EPS_ANGLE, EPS_ORTH, as_matrix, orthonormalize

_COS_PI_4 = np.sqrt(0.5)


def sign_fix_columns(q: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's first entry above EPS_ORTH is positive."""
    q = np.array(q, dtype=float)
    for j in range(q.shape[1]):
        nz = np.flatnonzero(np.abs(q[:, j]) > EPS_ORTH)
        if nz.size and q[nz[0], j] < 0.0:
            q[:, j] = -q[:, j]
    return q


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional subspace of R^n held as an orthonormal n x k representative."""

    rep: np.ndarray

    def __post_init__(self) -> None:
        rep = as_matrix(self.rep).copy()
        n, k = rep.shape
        if k > n:
            raise ValueError(f"subspace dimension {k} exceeds ambient dimension {n}")
        residual = float(np.max(np.abs(rep.T @ rep - np.eye(k))))
        if residual > EPS_ORTH:
            raise ValueError(
                f"representative is not orthonormal (residual {residual:.3e})"
            )
        rep.setflags(write=False)
        object.__setattr__(self, "rep", rep)

    @property
    def n(self) -> int:
        return self.rep.shape[0]

    @property
    def k(self) -> int:
        return self.rep.shape[1]

    def __repr__(self) -> str:
        return f"Subspace(k={self.k}, n={self.n})"


def subspace_from_spanning(a) -> Subspace:
    """Subspace spanned by the columns of `a`, with the canonical sign-fixed basis."""
    return Subspace(sign_fix_columns(orthonormalize(a)))


def random_subspace(n: int, k: int, rng: np.random.Generator) -> Subspace:
    """Haar-uniform random element of Gr(k, n) (QR of a Gaussian matrix)."""
    return subspace_from_spanning(rng.standard_normal((n, k)))


def require_same_grassmannian(u: Subspace, v: Subspace) -> None:
    if u.n != v.n or u.k != v.k:
        raise DimensionMismatchError(
            f"subspaces live on different Grassmannians: "
            f"Gr({u.k},{u.n}) vs Gr({v.k},{v.n})"
        )


def spectra(a, b) -> np.ndarray:
    """Principal angles in radians, ascending, of every pair in two stacks.

    `a` and `b` are (..., n, k) stacks of orthonormal representatives that
    broadcast against each other; the result has shape (..., k).  Angles
    below pi/4 are the arcsines of the singular values of B - A (A^T B),
    which keep full relative accuracy down to the smallest angles; the rest
    are the arccosines of the singular values of A^T B.  For lines (k = 1)
    those singular values are |a^T b| and |b - a (a^T b)|, taken directly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cross = np.swapaxes(a, -1, -2) @ b
    residual = b - a @ cross
    if a.shape[-1] == 1:
        cos = np.abs(cross[..., 0])
        sin = np.sqrt((residual * residual).sum(axis=-2))
    else:
        cos = np.linalg.svd(cross, compute_uv=False)  # descending: angles ascending
        sin = np.linalg.svd(residual, compute_uv=False)[..., ::-1]
    if (cos > 1.0 + CLAMP_SLACK).any():
        raise ClampError(f"cosine {float(cos.max())!r} is too far above 1 to be roundoff")
    small = cos > _COS_PI_4
    return np.where(small, np.arcsin(np.minimum(sin, 1.0)), np.arccos(np.minimum(cos, 1.0)))


def principal_angles(u: Subspace, v: Subspace) -> np.ndarray:
    """Principal angles in radians, ascending, between two subspaces."""
    require_same_grassmannian(u, v)
    return spectra(u.rep, v.rep)


def projection_matrix(u: Subspace) -> np.ndarray:
    """Orthogonal projector U U^T onto the subspace (basis-independent)."""
    return u.rep @ u.rep.T


def complement(u: Subspace) -> Subspace:
    """Orthogonal complement in Gr(n-k, n): the trailing left singular vectors."""
    if u.k == u.n:
        raise FullDimensionError(
            f"subspace fills R^{u.n}; its complement is the zero space"
        )
    left = np.linalg.svd(u.rep, full_matrices=True)[0]
    return Subspace(sign_fix_columns(left[:, u.k :]))


def nonzero_angles(spectrum: np.ndarray, eps_angle: float) -> np.ndarray:
    """Angles above the numerical-zero threshold, order preserved."""
    spectrum = np.asarray(spectrum, dtype=float)
    return spectrum[spectrum > eps_angle]


def complement_duality_check(
    u: Subspace, v: Subspace, tol: float = 1e-8, eps_angle: float = EPS_ANGLE
) -> bool:
    """True iff the nonzero principal angles of (U, V) match those of (U-perp, V-perp).

    Multisets are compared as sorted lists after filtering angles <= eps_angle;
    a count mismatch is an immediate False.
    """
    require_same_grassmannian(u, v)
    direct = nonzero_angles(principal_angles(u, v), eps_angle)
    dual = nonzero_angles(principal_angles(complement(u), complement(v)), eps_angle)
    if direct.size != dual.size:
        return False
    if direct.size == 0:
        return True
    return bool(np.max(np.abs(direct - dual)) <= tol)
