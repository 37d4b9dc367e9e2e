"""Generators of equiangular line sets and equiangular subspace families.

Covers the block-diagonal lift of N equiangular lines to N^k subspaces of
Gr(k, kn) whose pairwise principal angles all lie in {0, alpha}, the
dimension lift that preserves chordal distances, and the Pluecker embedding
into the exterior power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AngleZeroError, DimensionMismatchError, NotEquiangularError
from .grassmann import Subspace, complement, sign_fix_columns
from .linalg import EPS_ORTH


def _sign_fix_rows(vectors: np.ndarray) -> np.ndarray:
    return sign_fix_columns(vectors.T).T


@dataclass(frozen=True, eq=False)
class LineSet:
    """N lines through the origin of R^n sharing one pairwise angle.

    vectors     (N, n) array, one unit vector per line
    common_cos  the shared |<u, v>| over distinct pairs, in [0, 1)
    """

    vectors: np.ndarray
    common_cos: float

    def __post_init__(self) -> None:
        vectors = np.array(self.vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise ValueError(f"expected an (N, n) vector array, got {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("line vectors must be finite")
        norms = np.linalg.norm(vectors, axis=1)
        if float(np.max(np.abs(norms - 1.0))) > EPS_ORTH:
            raise ValueError("line vectors must have unit norm")
        if not 0.0 <= self.common_cos < 1.0:
            raise ValueError(f"common_cos must lie in [0, 1), got {self.common_cos}")
        if vectors.shape[0] >= 2:
            gram = np.abs(vectors @ vectors.T)
            dev = float(np.max(np.abs(gram[np.triu_indices(len(vectors), 1)] - self.common_cos)))
            if dev > 1e-8:
                raise NotEquiangularError(
                    f"pairwise |<u,v>| deviates from {self.common_cos} by {dev:.3e}"
                )
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def from_vectors(cls, vectors, tol: float = 1e-9) -> "LineSet":
        """Build a LineSet from unit vectors, checking equiangularity within `tol`."""
        vectors = np.array(vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError("expected an (N, n) array of vectors")
        count = vectors.shape[0]
        if count < 2:
            return cls(vectors, 0.0)
        gram = np.abs(vectors @ vectors.T)
        pairs = gram[np.triu_indices(count, 1)]
        common = float(np.mean(pairs))
        dev = float(np.max(np.abs(pairs - common)))
        if dev > tol:
            raise NotEquiangularError(
                f"line set is not equiangular: |<u,v>| spread {dev:.3e} exceeds {tol:.1e}"
            )
        return cls(vectors, common)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def common_angle(self) -> float:
        """The shared angle arccos(common_cos), in (0, pi/2]."""
        return float(math.acos(self.common_cos))

    def __repr__(self) -> str:
        return f"LineSet(size={self.size}, n={self.n}, common_cos={self.common_cos:.6g})"


@dataclass(frozen=True, eq=False)
class SubspaceFamily:
    """An ordered family of same-(k, n) subspaces plus free-form provenance."""

    k: int
    n: int
    members: tuple[Subspace, ...]
    provenance: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        for member in members:
            if (member.k, member.n) != (self.k, self.n):
                raise DimensionMismatchError(
                    f"family member in Gr({member.k},{member.n}) does not match "
                    f"Gr({self.k},{self.n})"
                )
        if len(members) >= 2:
            # Members coincide when their projectors agree entrywise; one row
            # of pairs (member i against every later member) at a time.
            projectors = self.reps @ np.swapaxes(self.reps, -1, -2)
            for i in range(len(members) - 1):
                gaps = np.abs(projectors[i] - projectors[i + 1 :]).max(axis=(-2, -1))
                hits = np.flatnonzero(gaps <= EPS_ORTH)
                if hits.size:
                    raise ValueError(f"family members {i} and {i + 1 + hits[0]} coincide")

    @cached_property
    def reps(self) -> np.ndarray:
        """The (m, n, k) read-only stack of member representatives."""
        stack = np.array([member.rep for member in self.members]).reshape(
            len(self.members), self.n, self.k
        )
        stack.setflags(write=False)
        return stack

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, idx: int) -> Subspace:
        return self.members[idx]

    def __repr__(self) -> str:
        return f"SubspaceFamily(m={len(self.members)}, k={self.k}, n={self.n})"


def simplex_lines(n: int) -> LineSet:
    """n+1 unit vectors in R^n with pairwise inner product -1/n (regular simplex).

    Built by centering the n+1 standard basis vectors of R^{n+1} and dropping
    isometrically onto the sum-zero hyperplane, so the inner products are exact
    up to roundoff.
    """
    if n < 2:
        raise ValueError(f"simplex_lines needs n >= 2, got {n}")
    m = n + 1
    centered = np.eye(m) - 1.0 / m  # rows e_i - centroid, all orthogonal to 1
    ones = np.full((m, 1), 1.0 / math.sqrt(m))
    hyperplane = complement(Subspace(ones))
    coords = centered @ hyperplane.rep
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    # keep the true vertex vectors: the signed inner products are exactly -1/n
    return LineSet.from_vectors(coords, tol=1e-11)


def icosahedral_lines() -> LineSet:
    """The 6 diagonals of the icosahedron: equiangular lines in R^3 at arccos(1/sqrt 5)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array(
        [
            [1.0, phi, 0.0],
            [-1.0, phi, 0.0],
            [0.0, 1.0, phi],
            [0.0, -1.0, phi],
            [phi, 0.0, 1.0],
            [phi, 0.0, -1.0],
        ]
    )
    vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return LineSet.from_vectors(_sign_fix_rows(vectors), tol=1e-11)


def orthonormal_lines(n: int) -> LineSet:
    """The n coordinate axes: the degenerate common angle pi/2 catalog entry."""
    if n < 1:
        raise ValueError(f"orthonormal_lines needs n >= 1, got {n}")
    return LineSet(np.eye(n), 0.0)


def lift_lines_to_subspaces(lines: LineSet, k: int) -> SubspaceFamily:
    """All N^k block-diagonal lifts of an equiangular line set into Gr(k, k*n).

    The member for the tuple (u_1, ..., u_k) has u_i as its i-th column,
    placed in coordinate block [(i-1)n, i*n); tuples are enumerated in
    lexicographic order.  Every pairwise principal angle lies in {0, alpha}
    where alpha is the lines' common angle.
    """
    if k < 1:
        raise ValueError(f"lift needs k >= 1, got {k}")
    if lines.common_cos >= 1.0 - 1e-9:
        raise AngleZeroError("lift requires a strictly positive common angle")
    count, n = lines.size, lines.n
    members = []
    for tup in itertools.product(range(count), repeat=k):
        rep = np.zeros((k * n, k))
        for i, idx in enumerate(tup):
            rep[i * n : (i + 1) * n, i] = lines.vectors[idx]
        members.append(Subspace(rep))
    alpha = lines.common_angle
    return SubspaceFamily(
        k,
        k * n,
        tuple(members),
        provenance=f"lift(k={k}) of {count} lines in R^{n}",
        metadata={"construction": "lift", "k": k, "common_angle": alpha},
    )


def chordal_lift(family: SubspaceFamily) -> SubspaceFamily:
    """Append a shared new axis e_{n+1} to every member: Gr(k, n) -> Gr(k+1, n+1).

    The added principal angle between any two lifted members is 0, so all
    pairwise chordal distances are preserved exactly.
    """
    members = []
    for member in family.members:
        rep = np.zeros((family.n + 1, family.k + 1))
        rep[: family.n, : family.k] = member.rep
        rep[family.n, family.k] = 1.0
        members.append(Subspace(rep))
    return SubspaceFamily(
        family.k + 1,
        family.n + 1,
        tuple(members),
        provenance=f"chordal_lift of [{family.provenance}]",
        metadata=dict(family.metadata, construction="chordal_lift"),
    )


def plucker_embed(u: Subspace) -> np.ndarray:
    """Pluecker coordinates: the k x k row minors of the representative.

    Row subsets are enumerated in lexicographic order; the result is a unit
    vector of length binom(n, k) and <phi(U), phi(V)> = det(U^T V) by
    Cauchy-Binet.
    """
    rows = np.array(list(itertools.combinations(range(u.n), u.k)))
    return np.linalg.det(u.rep[rows])


def plucker_line_family(family: SubspaceFamily) -> LineSet:
    """Lines along the Pluecker images of a Fubini-Study-equiangular family.

    The pairwise |<phi(U_i), phi(U_j)>| = |det(U_i^T U_j)| must share one
    value (cos of the common Fubini-Study angle); otherwise NotEquiangular.
    """
    phis = np.array([plucker_embed(member) for member in family.members])
    norms = np.linalg.norm(phis, axis=1)
    phis /= norms[:, None]
    return LineSet.from_vectors(_sign_fix_rows(phis), tol=1e-8)


def complement_family(family: SubspaceFamily) -> SubspaceFamily:
    """Member-wise orthogonal complement: Gr(k, n) -> Gr(n-k, n)."""
    members = tuple(complement(member) for member in family.members)
    return SubspaceFamily(
        family.n - family.k,
        family.n,
        members,
        provenance=f"complement of [{family.provenance}]",
        metadata=dict(family.metadata, construction="complement"),
    )
