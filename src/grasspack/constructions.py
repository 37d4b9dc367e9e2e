"""Generators of equiangular line sets and equiangular subspace families.

Line sets are k = 1 families.  Covers the block-diagonal lift of N
equiangular lines to N^k subspaces of Gr(k, kn) whose pairwise principal
angles all lie in {0, alpha}, the dimension lift that preserves chordal
distances, and the Pluecker embedding into the exterior power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleZeroError, FamilyTooSmallError, NotEquiangularError
from .grassmann import (
    PAIR_CHUNK_ENTRIES, Subspace, abs_cross_det, complements, pair_chunks, pair_stats, sign_fix_columns,
    spectra,
)
from .linalg import EPS_ORTH, check_tolerance, orthonormality_residuals, orthonormalize_stack


# ||U_i^T U_j||_F^2 >= k (1 - _COINCIDENT_SLACK) marks a pair of family
# members as possibly coincident (see SubspaceFamily.__post_init__).
_COINCIDENT_SLACK = 1e-6


def _common_abs_det(reps: np.ndarray, tol: float, failure: str) -> float:
    """Mean `abs_cross_det` of a stack's distinct pairs (0 for one member); NotEquiangularError,
    led by `failure`, when a pair's value deviates from it by more than tol."""
    common, lo, hi = pair_stats(reps, lambda i, j, a, b: abs_cross_det(a, b))
    spread = float(max(hi - common, common - lo))
    if spread > tol:
        raise NotEquiangularError(f"{failure} spread {spread:.3e} exceeds {tol:.1e}")
    return common


@dataclass(frozen=True, eq=False)
class SubspaceFamily:
    """An ordered family of same-(k, n) subspaces, stored as one stack.

    reps      (m, n, k) read-only array of orthonormal representatives
    metadata  free-form map written to the family's file; its "provenance"
              entry says how the family was made

    Construction checks that reps is an (m, n, k) stack with 1 <= k <= n, each
    member orthonormal within EPS_ORTH and no two members coincident: no pair
    with every principal angle between their spans at most EPS_ORTH.
    `family[i]`, a slice and iteration build each member they give as a
    Subspace of its own read-only copy of reps[i].
    """

    reps: np.ndarray
    metadata: dict | None = None

    def __post_init__(self) -> None:
        reps = np.array(self.reps, dtype=float)
        # m = 0 is allowed; a NaN fails orthonormality
        if reps.ndim != 3 or 0 in reps.shape[1:]:
            raise ValueError(f"expected an (m, n, k) stack, got shape {reps.shape}")
        _, n, k = reps.shape
        if k > n:
            raise ValueError(f"member dimension k = {k} exceeds ambient dimension n = {n}")
        err = orthonormality_residuals(reps)
        if not (err <= EPS_ORTH).all():
            i = np.argmin(err <= EPS_ORTH)
            raise ValueError(f"member {i}: representative is not orthonormal (residual {err[i]:.3e})")
        reps.setflags(write=False)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "metadata", dict(self.metadata or {}))
        # With P = U U^T, G = U^T U, C = U_i^T U_j and Q a QR basis of U,
        # ||P_i - P_j||_F^2 = ||G_i||_F^2 + ||G_j||_F^2 - 2 ||C||_F^2, where
        # orthonormality within EPS_ORTH gives ||G||_F^2 >= k - 2k EPS_ORTH and
        # ||P - Q Q^T||_F = ||G - I||_F <= k EPS_ORTH, and coincidence gives
        # ||Q_i Q_i^T - Q_j Q_j^T||_F <= sqrt(2k) EPS_ORTH.  So every coincident
        # pair has ||C||_F^2 >= k - 2k EPS_ORTH - 8 k^2 EPS_ORTH^2.  For every k
        # below 10^12 the filter's margin k * _COINCIDENT_SLACK lies far above
        # that, and for members of under 10^9 entries above the roundoff of
        # ||C||_F^2 (at most about 2 k^1.5 n 1.1e-16): it never drops a coincident
        # pair.  The QR bases wait for the first kept pair, which most families lack.
        floor = k * (1.0 - _COINCIDENT_SLACK)
        bases = None
        for i, j, a, b in pair_chunks(reps):
            cross = np.swapaxes(a, -1, -2) @ b
            near = (cross * cross).sum(axis=(-2, -1)) >= floor
            if not near.any():
                continue
            if bases is None:
                bases = orthonormalize_stack(reps)[0]
            i, j = i[near], j[near]
            hits = np.flatnonzero(spectra(bases[i], bases[j])[..., -1] <= EPS_ORTH)
            if hits.size:
                raise ValueError(f"family members {i[hits[0]]} and {j[hits[0]]} coincide")

    @property
    def n(self) -> int:
        return self.reps.shape[1]

    @property
    def k(self) -> int:
        return self.reps.shape[2]

    @property
    def provenance(self) -> str:
        return str(self.metadata.get("provenance", ""))

    @property
    def members(self) -> tuple[Subspace, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self.reps.shape[0]

    def __iter__(self):
        return map(Subspace, self.reps)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return tuple(map(Subspace, self.reps[idx]))
        return Subspace(self.reps[idx])

    def __repr__(self) -> str:
        return f"SubspaceFamily(m={len(self)}, k={self.k}, n={self.n})"


@dataclass(frozen=True, eq=False, init=False)
class LineSet(SubspaceFamily):
    """N lines through the origin of R^n sharing one pairwise angle: a k = 1 family.

    common_cos  the shared |<u, v>| over distinct pairs, in [0, 1) (0 for one line)

    `LineSet(vectors, tol=1e-9, metadata=None)` checks the (N, n) vectors as a
    family, whose orthonormality rule for k = 1 is unit norm, so every line set
    lifts.  It measures common_cos with `pair_stats` and raises
    NotEquiangularError when a pair's |<u, v>| deviates from it by more than
    tol, which the set does not keep; its metadata never keeps "common_cos".
    """

    common_cos: float

    def __init__(self, vectors, tol: float = 1e-9, metadata: dict | None = None) -> None:
        check_tolerance(tol)
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or 0 in vectors.shape:
            raise ValueError(f"expected an (N, n) vector array, got {vectors.shape}")
        metadata = {key: value for key, value in (metadata or {}).items() if key != "common_cos"}
        super().__init__(vectors[:, :, None], metadata)
        common = _common_abs_det(self.reps, tol, "line set is not equiangular: |<u,v>|")
        if not common < 1.0:
            raise ValueError(f"common_cos must lie in [0, 1), got {common}")
        object.__setattr__(self, "common_cos", common)

    @property
    def vectors(self) -> np.ndarray:
        """The (N, n) read-only unit vectors, a view of reps."""
        return self.reps[:, :, 0]

    @property
    def size(self) -> int:
        return len(self)

    @property
    def common_angle(self) -> float:
        """The shared angle arccos(common_cos), in (0, pi/2]."""
        return float(math.acos(self.common_cos))

    def __repr__(self) -> str:
        return f"LineSet(size={self.size}, n={self.n}, common_cos={self.common_cos:.6g})"


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
    return LineSet(coords, tol=1e-11, metadata={"construction": "simplex-lines", "n": n})


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
    metadata = {"construction": "icosahedral-lines"}
    return LineSet(sign_fix_columns(vectors.T).T, tol=1e-11, metadata=metadata)


def orthonormal_lines(n: int) -> LineSet:
    """The n coordinate axes: the degenerate common angle pi/2 catalog entry."""
    if n < 1:
        raise ValueError(f"orthonormal_lines needs n >= 1, got {n}")
    return LineSet(np.eye(n), metadata={"construction": "orthonormal-lines", "n": n})


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
    metadata = {"construction": "lift", "k": k, "common_angle": lines.common_angle}
    metadata["provenance"] = f"lift(k={k}) of {count} lines in R^{n}"
    return SubspaceFamily(reps.reshape(-1, k * n, k), metadata)


def chordal_lift(family: SubspaceFamily) -> SubspaceFamily:
    """Append a shared new axis e_{n+1} to every member: Gr(k, n) -> Gr(k+1, n+1).

    The added principal angle between any two lifted members is 0, so all
    pairwise chordal distances are preserved exactly.
    """
    m, n, k = family.reps.shape
    reps = np.zeros((m, n + 1, k + 1))
    reps[:, :n, :k] = family.reps
    reps[:, n, k] = 1.0
    provenance = f"chordal_lift of [{family.provenance}]"
    metadata = dict(_derived(family), construction="chordal_lift", provenance=provenance)
    return SubspaceFamily(reps, metadata)


def plucker_line_family(family: SubspaceFamily) -> LineSet:
    """Lines along the Pluecker images of a Fubini-Study-equiangular family.

    The pairwise |<phi(U_i), phi(U_j)>| = |det(U_i^T U_j)| must share one
    value (cos of the common Fubini-Study angle) within 1e-8; otherwise
    NotEquiangularError names the input family.  That check reads the
    members' k x k determinants, before any Pluecker vector is formed.
    """
    if len(family) < 1:
        raise FamilyTooSmallError("Pluecker lines need at least one family member")
    _common_abs_det(family.reps, 1e-8, "input family is not Fubini-Study-equiangular: |det(U_i^T U_j)|")
    rows = np.array(list(itertools.combinations(range(family.n), family.k)))
    phis = np.empty((len(family), len(rows)))
    # one det batch per run of members whose k x k minors fit in PAIR_CHUNK_ENTRIES
    step = max(PAIR_CHUNK_ENTRIES // rows.size // family.k, 1)
    for lo in range(0, len(family), step):
        phis[lo : lo + step] = np.linalg.det(family.reps[lo : lo + step, rows])
    phis /= np.linalg.norm(phis, axis=1)[:, None]
    metadata = {"construction": "plucker", "source_k": family.k, "source_n": family.n}
    return LineSet(sign_fix_columns(phis.T).T, tol=1e-8, metadata=metadata)


def complement_family(family: SubspaceFamily) -> SubspaceFamily:
    """Member-wise orthogonal complement: Gr(k, n) -> Gr(n-k, n)."""
    provenance = f"complement of [{family.provenance}]"
    metadata = dict(_derived(family), construction="complement", provenance=provenance)
    return SubspaceFamily(complements(family.reps), metadata)


def _derived(family: SubspaceFamily) -> dict:
    """The source's metadata without its "k": a derived family's k is the file's own."""
    return {key: value for key, value in family.metadata.items() if key != "k"}
