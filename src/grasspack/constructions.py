"""Generators of equiangular line sets and equiangular subspace families.

Covers the block-diagonal lift of N equiangular lines to N^k subspaces of
Gr(k, kn) whose pairwise principal angles all lie in {0, alpha}, the
dimension lift that preserves chordal distances, and the Pluecker embedding
into the exterior power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleZeroError, DimensionMismatchError, FamilyTooSmallError, NotEquiangularError
from .grassmann import PAIR_CHUNK_ENTRIES, Subspace, complements, pair_chunks, sign_fix_columns
from .linalg import EPS_ORTH, check_tolerance


# ||U_i^T U_j||_F^2 >= k (1 - _COINCIDENT_SLACK) marks a pair of family
# members as possibly coincident (see SubspaceFamily.__post_init__).
_COINCIDENT_SLACK = 1e-6


def _projectors(reps: np.ndarray) -> np.ndarray:
    return reps @ np.swapaxes(reps, -1, -2)


@dataclass(frozen=True, eq=False)
class LineSet:
    """N lines through the origin of R^n sharing one pairwise angle.

    vectors     (N, n) array, one unit vector per line
    common_cos  the shared |<u, v>| over distinct pairs, in [0, 1)

    `from_vectors` measures common_cos and checks the set is equiangular
    within the caller's tolerance; the constructor itself checks shapes,
    norms and the range of common_cos, and trusts the pairing of the two.
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
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def from_vectors(cls, vectors, tol: float = 1e-9) -> "LineSet":
        """Build a LineSet from unit vectors, checking equiangularity within `tol`."""
        check_tolerance(tol)
        vectors = np.array(vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError("expected an (N, n) array of vectors")
        count = vectors.shape[0]
        if count < 2:
            return cls(vectors, 0.0)
        pairs = np.abs(vectors @ vectors.T)[np.triu_indices(count, 1)]
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


class SubspaceFamily:
    """An ordered family of same-(k, n) subspaces, stored as one stack.

    reps is the (m, n, k) read-only array of orthonormal representatives;
    provenance and metadata are free-form and go to the family's file.
    `from_stack` builds a family from its stack; calling the class with
    (k, n, Subspace members) stacks them and runs the same checks: each
    member orthonormal within EPS_ORTH, no two members coincident.  Members
    are read-only Subspace views of the stack, neither copied nor re-checked,
    and no attribute of a family can be set.
    """

    def __init__(self, k: int, n: int, members, provenance: str = "", metadata: dict | None = None):
        reps = [member.rep for member in members]
        if any(rep.shape != (n, k) for rep in reps):
            raise DimensionMismatchError(f"family members must all lie in Gr({k},{n})")
        self.__post_init__(np.array(reps).reshape(-1, n, k), provenance, metadata)

    @classmethod
    def from_stack(cls, reps, provenance: str = "", metadata: dict | None = None) -> "SubspaceFamily":
        """The family whose member i has the representative reps[i] of an (m, n, k) stack."""
        family = cls.__new__(cls)
        family.__post_init__(reps, provenance, metadata)
        return family

    def __post_init__(self, reps, provenance: str, metadata: dict | None) -> None:
        # Both constructors' checks, named as the dataclass hook they replace so
        # bench/ still times them; a k > n stack or a NaN fails orthonormality.
        reps = np.array(reps, dtype=float)
        _, n, k = reps.shape
        err = np.abs(np.swapaxes(reps, -1, -2) @ reps - np.eye(k)).max(axis=(-2, -1))
        if not (err <= EPS_ORTH).all():
            i = np.argmin(err <= EPS_ORTH)
            raise ValueError(f"member {i}: representative is not orthonormal (residual {err[i]:.3e})")
        reps.setflags(write=False)
        vars(self).update(reps=reps, provenance=provenance, metadata=dict(metadata or {}), n=n, k=k)
        # Members i and j coincide when their projectors agree entrywise
        # within EPS_ORTH.  With C = U_i^T U_j and G = U^T U,
        # ||P_i - P_j||_F^2 = ||G_i||_F^2 + ||G_j||_F^2 - 2 ||C||_F^2, where
        # orthonormality within EPS_ORTH gives ||G||_F^2 >= k - 2k EPS_ORTH and
        # coincidence gives ||P_i - P_j||_F^2 <= n^2 EPS_ORTH^2.  So every
        # coincident pair has ||C||_F^2 >= k - 2k EPS_ORTH - n^2 EPS_ORTH^2 / 2.
        # The filter's margin k * _COINCIDENT_SLACK lies far above that
        # (and above the roundoff of ||C||_F^2) for every k and any n below
        # 10^6, so it never drops a coincident pair; only the pairs it keeps
        # go to the entrywise projector test.
        floor = k * (1.0 - _COINCIDENT_SLACK)
        for i, j, a, b in pair_chunks(reps):
            cross = np.swapaxes(a, -1, -2) @ b
            near = (cross * cross).sum(axis=(-2, -1)) >= floor
            if not near.any():
                continue
            i, j = i[near], j[near]
            gaps = np.abs(_projectors(reps[i]) - _projectors(reps[j])).max(axis=(-2, -1))
            hits = np.flatnonzero(gaps <= EPS_ORTH)
            if hits.size:
                raise ValueError(f"family members {i[hits[0]]} and {j[hits[0]]} coincide")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a SubspaceFamily is immutable")

    @property
    def members(self) -> tuple[Subspace, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self.reps.shape[0]

    def __iter__(self):
        return map(Subspace.view, self.reps)

    def __getitem__(self, idx):
        return self.members[idx] if isinstance(idx, slice) else Subspace.view(self.reps[idx])

    def __repr__(self) -> str:
        return f"SubspaceFamily(m={len(self)}, k={self.k}, n={self.n})"


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
    coords = centered @ complements(ones)
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
    return LineSet.from_vectors(sign_fix_columns(vectors.T).T, tol=1e-11)


def orthonormal_lines(n: int) -> LineSet:
    """The n coordinate axes: the degenerate common angle pi/2 catalog entry."""
    if n < 1:
        raise ValueError(f"orthonormal_lines needs n >= 1, got {n}")
    return LineSet.from_vectors(np.eye(n))


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
    # member t takes line tuples[slot, t] as its column `slot`, in block `slot`
    tuples = np.indices((count,) * k).reshape(k, -1)
    reps = np.zeros((tuples.shape[1], k, n, k))
    slots = np.arange(k)
    reps[:, slots, :, slots] = lines.vectors[tuples]
    return SubspaceFamily.from_stack(
        reps.reshape(-1, k * n, k),
        provenance=f"lift(k={k}) of {count} lines in R^{n}",
        metadata={"construction": "lift", "k": k, "common_angle": lines.common_angle},
    )


def chordal_lift(family: SubspaceFamily) -> SubspaceFamily:
    """Append a shared new axis e_{n+1} to every member: Gr(k, n) -> Gr(k+1, n+1).

    The added principal angle between any two lifted members is 0, so all
    pairwise chordal distances are preserved exactly.
    """
    m, n, k = family.reps.shape
    reps = np.zeros((m, n + 1, k + 1))
    reps[:, :n, :k] = family.reps
    reps[:, n, k] = 1.0
    return SubspaceFamily.from_stack(
        reps,
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
    if len(family) < 1:
        raise FamilyTooSmallError("Pluecker lines need at least one family member")
    rows = np.array(list(itertools.combinations(range(family.n), family.k)))
    phis = np.empty((len(family), len(rows)))
    # one det batch per run of members whose k x k minors fit in PAIR_CHUNK_ENTRIES
    step = max(PAIR_CHUNK_ENTRIES // rows.size // family.k, 1)
    for lo in range(0, len(family), step):
        phis[lo : lo + step] = np.linalg.det(family.reps[lo : lo + step, rows])
    norms = np.linalg.norm(phis, axis=1)
    phis /= norms[:, None]
    return LineSet.from_vectors(sign_fix_columns(phis.T).T, tol=1e-8)


def complement_family(family: SubspaceFamily) -> SubspaceFamily:
    """Member-wise orthogonal complement: Gr(k, n) -> Gr(n-k, n)."""
    return SubspaceFamily.from_stack(
        complements(family.reps),
        provenance=f"complement of [{family.provenance}]",
        metadata=dict(family.metadata, construction="complement"),
    )
