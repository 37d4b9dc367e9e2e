"""Subspaces of R^n and the batched principal-angle kernel.

A subspace is held as an orthonormal n x k representative matrix.  Every
angle computation goes through `spectra`, which takes whole stacks of
representatives at once: the cosines are the singular values of the k x k
cross-Grams U^T V, the sines those of the residuals V - U U^T V, and each
angle is read as arctan2(sine, cosine), which keeps full accuracy from the
smallest angles to pi/2 (Bjorck & Golub 1973; Knyazev & Argentati 2002).
`cross_residual` forms both stacks; the chordal distance reads the
residuals' Frobenius norms from it without taking angles.  `abs_cross_det`
gives |det(A^T B)| to Fubini-Study, a line set's common |cos| and the
Pluecker input check.  Every family scan (member distinctness, the
equiangular and equi-isoclinic checks and the determinant certificate)
visits the m(m-1)/2 member pairs through `pair_chunks`, a bounded chunk at
a time, so no scan holds more than PAIR_CHUNK_ENTRIES entries per
representative stack; `pair_stats` reduces a per-pair value over those chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClampError, DimensionMismatchError, FullDimensionError
from .linalg import CLAMP_SLACK, EPS_ORTH, as_matrix, orthonormality_residuals, orthonormalize

# Entries (pairs x n x k) of each representative stack a chunk of
# `pair_chunks` holds: no row of the paper-scale lifts is split (a 1 331-member
# Gr(3,30) lift's longest row holds 119 700), and a chunk's temporaries stay
# a few MB whatever the family size.
PAIR_CHUNK_ENTRIES = 131072


def sign_fix_columns(q: np.ndarray) -> np.ndarray:
    """Flip each column of an (..., n, k) stack so its first entry above EPS_ORTH is positive."""
    q = np.array(q, dtype=float)
    big = np.abs(q) > EPS_ORTH
    pivots = np.take_along_axis(q * big, big.argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(pivots < 0.0, -q, q)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional subspace of R^n held as an orthonormal n x k representative."""

    rep: np.ndarray

    def __post_init__(self) -> None:
        rep = as_matrix(self.rep).copy()
        n, k = rep.shape
        if k > n:
            raise ValueError(f"subspace dimension {k} exceeds ambient dimension {n}")
        residual = float(orthonormality_residuals(rep))
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


def pair_chunks(reps: np.ndarray):
    """Every pair i < j of an (m, n, k) stack, in lexicographic order, in chunks.

    Yields (i, j, a, b): the index arrays of a run of pairs within one row
    (member i against later members) and their representatives, a = reps[i]
    broadcasting against the view b = reps[j].  A row longer than
    PAIR_CHUNK_ENTRIES / (n k) pairs comes in slices.
    """
    m, n, k = reps.shape
    size = max(PAIR_CHUNK_ENTRIES // (n * k), 1)
    for i in range(m - 1):
        for lo in range(i + 1, m, size):
            hi = min(lo + size, m)
            yield np.full(hi - lo, i), np.arange(lo, hi), reps[i], reps[lo:hi]


def pair_stats(reps: np.ndarray, values) -> tuple[float, float, float]:
    """Mean, minimum and maximum of values(i, j, a, b) over `pair_chunks` (0, inf, -inf
    for no pairs); chunk sums add by `math.fsum`, and the mean divides by the values' count."""
    sums, count, lo, hi = [], 0, np.inf, -np.inf
    for i, j, a, b in pair_chunks(reps):
        chunk = values(i, j, a, b)
        sums.append(chunk.sum())
        count += chunk.size
        lo = np.minimum(lo, chunk.min())
        hi = np.maximum(hi, chunk.max())
    return math.fsum(sums) / count if count else 0.0, lo, hi


def cross_residual(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Cross-Grams A^T B and residuals B - A (A^T B) of two representative stacks.

    The singular values of the cross-Grams are the cosines of the principal
    angles and those of the residuals their sines.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cross = np.swapaxes(a, -1, -2) @ b
    residual = a @ cross  # full broadcast shape: it holds the result, one array fewer
    return cross, np.subtract(b, residual, out=residual)


def cosines(cross) -> np.ndarray:
    """Singular values, descending, of a (..., k, k) stack of cross-Grams.

    These are the cosines of the principal angles; for lines (k = 1) the one
    singular value is |a^T b|, taken directly.  Raises ClampError above
    1 + CLAMP_SLACK + k EPS_ORTH: |U^T U - I| <= EPS_ORTH entrywise gives
    ||U||_2^2 <= 1 + k EPS_ORTH, so no cosine ||U^T V||_2 between members
    orthonormal within EPS_ORTH exceeds 1 + k EPS_ORTH by more than roundoff.
    """
    if cross.shape[-1] == 1:
        cos = np.abs(cross[..., 0])
    else:
        cos = np.linalg.svd(cross, compute_uv=False)
    if (cos > 1.0 + CLAMP_SLACK + cross.shape[-1] * EPS_ORTH).any():
        raise ClampError(f"cosine {float(cos.max())!r} is too far above 1 to be roundoff")
    return cos


def abs_cross_det(a, b) -> np.ndarray:
    """|det(A^T B)| of every pair in two broadcasting (..., n, k) stacks; |a^T b| for lines."""
    cross = np.swapaxes(np.asarray(a, dtype=float), -1, -2) @ b
    # LAPACK's LU returns a 1 x 1 matrix's entry: skipping the call saves its overhead
    return np.abs(cross[..., 0, 0] if cross.shape[-1] == 1 else np.linalg.det(cross))


def spectra(a, b) -> np.ndarray:
    """Principal angles in radians, ascending, of every pair in two stacks.

    `a` and `b` are (..., n, k) stacks of orthonormal representatives that
    broadcast against each other; the result has shape (..., k).  Each
    angle is arctan2(sine, cosine): the sines, the singular values of
    B - A (A^T B), keep full relative accuracy at the smallest angles, and
    the cosines, those of A^T B, resolve the angles near pi/2.  For lines
    (k = 1) the two are |b - a (a^T b)| and |a^T b|, taken directly.
    """
    cross, residual = cross_residual(a, b)
    cos = cosines(cross)  # descending: angles ascending
    if cross.shape[-1] == 1:
        sin = np.sqrt((residual * residual).sum(axis=-2))
    else:
        sin = np.linalg.svd(residual, compute_uv=False)[..., ::-1]
    return np.arctan2(sin, cos)


def principal_angles(u: Subspace, v: Subspace) -> np.ndarray:
    """Principal angles in radians, ascending, between two subspaces."""
    require_same_grassmannian(u, v)
    return spectra(u.rep, v.rep)


def complements(reps: np.ndarray) -> np.ndarray:
    """Orthogonal complements of an (..., n, k) stack: the trailing left singular
    vectors of each representative, sign-fixed, as an (..., n, n - k) stack."""
    n, k = reps.shape[-2:]
    if k == n:
        raise FullDimensionError(f"subspace fills R^{n}; its complement is the zero space")
    left = np.linalg.svd(reps, full_matrices=True)[0]
    return sign_fix_columns(left[..., k:])

