"""Equiangularity and equi-isoclinicity checkers, the determinant certificate,
and the bound formulas (all exact integer arithmetic)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import SubspaceFamily
from .errors import AlphaZeroError, FamilyTooSmallError, NotOddPrimeError
from .linalg import EPS_ANGLE
from .metrics import get_metric, pair_distances


@dataclass(frozen=True)
class EquiangularReport:
    """Outcome of a pairwise common-angle scan."""

    metric_id: str
    pair_count: int
    common_value: float
    max_deviation: float
    tolerance: float
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "metric": self.metric_id,
            "pair_count": self.pair_count,
            "common_value": self.common_value,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class EquiisoclinicReport:
    """Outcome of the V^T U U^T V = lambda*I scan with one shared lambda."""

    lam: float
    pair_count: int
    max_deviation: float
    tolerance: float
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "pair_count": self.pair_count,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


@dataclass(frozen=True, eq=False)
class Certificate:
    """Evaluation of the degree-k determinant polynomials at every projector.

    eval_matrix[i, j] = det(U_i^T P_j U_i - (lambda tr(P_j) / k) I_k) where
    P_j is the j-th projector; for a family pairwise equiangular with common
    angle alpha (any angle distance) this is (1 - lambda)^k on the diagonal
    and 0 elsewhere, which forces the f_i to be linearly independent inside a
    space of dimension C(C(n+1,2) + k - 1, k).
    """

    m: int
    alpha: float
    lam: float
    eval_matrix: np.ndarray
    diagonal_target: float
    max_diag_deviation: float
    max_offdiag: float
    bound: int
    tolerance: float
    verdict: bool

    def to_dict(self) -> dict:
        doc = {
            "m": self.m,
            "alpha": self.alpha,
            "lambda": self.lam,
            "diagonal_target": self.diagonal_target,
            "max_diag_deviation": self.max_diag_deviation,
            "max_offdiag": self.max_offdiag,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }
        # full matrix only at desk scale; summary stats always present
        if self.m <= 50:
            doc["eval_matrix"] = self.eval_matrix.tolist()
        return doc


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def pairwise_distances(family: SubspaceFamily, metric, eps_angle: float = EPS_ANGLE) -> np.ndarray:
    """Condensed vector of pairwise distances in (i < j) lexicographic order."""
    metric = get_metric(metric)
    reps = family.reps
    rows = [
        pair_distances(metric, reps[i], reps[i + 1 :], eps_angle)
        for i in range(len(reps) - 1)
    ]
    return np.concatenate([np.empty(0), *rows])


def check_equiangular(
    family: SubspaceFamily,
    metric,
    tol: float = 1e-8,
    eps_angle: float = EPS_ANGLE,
) -> EquiangularReport:
    """Scan all pairs; the common value is the mean, the verdict its max deviation."""
    _check_tolerance(tol)
    metric = get_metric(metric)
    if len(family) < 2:
        raise FamilyTooSmallError(
            f"equiangularity needs at least 2 members, got {len(family)}"
        )
    values = pairwise_distances(family, metric, eps_angle)
    common = float(np.mean(values))
    deviation = float(np.max(np.abs(values - common)))
    return EquiangularReport(
        metric_id=metric.id,
        pair_count=values.size,
        common_value=common,
        max_deviation=deviation,
        tolerance=tol,
        verdict=deviation <= tol,
    )


def check_equiisoclinic(family: SubspaceFamily, tol: float = 1e-8) -> EquiisoclinicReport:
    """Check V^T U U^T V = lambda * I over all pairs, with lambda shared family-wide.

    lambda is estimated jointly as the grand mean of the diagonal means, since
    the definition requires a single value for the whole family.
    """
    if len(family) < 2:
        raise FamilyTooSmallError(
            f"equi-isoclinicity needs at least 2 members, got {len(family)}"
        )
    reps = family.reps
    k = family.k
    m = len(reps)

    def rows():
        # V^T U U^T V for U = member i and V each later member, one row at a time
        for i in range(m - 1):
            cross = reps[i].T @ reps[i + 1 :]
            yield np.swapaxes(cross, -1, -2) @ cross

    pair_count = m * (m - 1) // 2
    lam = sum(float(np.trace(p, axis1=-2, axis2=-1).sum()) for p in rows()) / (k * pair_count)
    deviation = max(float(np.max(np.abs(p - lam * np.eye(k)))) for p in rows())
    return EquiisoclinicReport(
        lam=lam,
        pair_count=pair_count,
        max_deviation=deviation,
        tolerance=tol,
        verdict=deviation <= tol,
    )


def polynomial_certificate(
    family: SubspaceFamily,
    alpha: float,
    tol: float = 1e-8,
    eps_angle: float = EPS_ANGLE,
) -> Certificate:
    """Build the determinant-polynomial certificate for a claimed common angle.

    The caller asserts the family is pairwise equiangular under some angle
    distance with common angle `alpha` > 0; the certificate evaluates every
    polynomial at every projector and checks the diagonal/off-diagonal
    structure plus m <= C(C(n+1,2)+k-1, k).
    """
    _check_tolerance(tol)
    if not alpha > eps_angle:  # NaN fails this too
        raise AlphaZeroError(
            f"certificate requires alpha > 0 (got {alpha!r}); "
            "the bound does not hold at alpha = 0"
        )
    if len(family) < 1:
        raise FamilyTooSmallError("certificate needs at least one member")
    k = family.k
    lam = math.cos(alpha) ** 2
    target = (1.0 - lam) ** k
    m = len(family)
    reps = family.reps
    # U_i^T P_j U_i = C C^T with C = U_i^T U_j, so no n x n projector is built
    shifts = lam * np.sum(reps * reps, axis=(1, 2)) / k  # lambda tr(P_j) / k
    eval_matrix = np.empty((m, m))
    for i in range(m):
        cross = reps[i].T @ reps
        eval_matrix[i] = np.linalg.det(
            cross @ np.swapaxes(cross, -1, -2) - shifts[:, None, None] * np.eye(k)
        )
    bound = bound_angle_distance(k, family.n)
    diag = np.diag(eval_matrix)
    max_diag_deviation = float(np.max(np.abs(diag - target)))
    if m > 1:
        off_mask = ~np.eye(m, dtype=bool)
        max_offdiag = float(np.max(np.abs(eval_matrix[off_mask])))
    else:
        max_offdiag = 0.0
    scaled = tol * (1.0 + abs(1.0 - lam) ** k)
    verdict = max_diag_deviation <= scaled and max_offdiag <= scaled and m <= bound
    return Certificate(
        m=m,
        alpha=alpha,
        lam=lam,
        eval_matrix=eval_matrix,
        diagonal_target=target,
        max_diag_deviation=max_diag_deviation,
        max_offdiag=max_offdiag,
        bound=bound,
        tolerance=scaled,
        verdict=verdict,
    )


def bound_gerzon(n: int) -> int:
    """C(n+1, 2): max number of equiangular lines in R^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.comb(n + 1, 2)


def bound_decaen(t: int) -> tuple[int, int]:
    """(n, lower bound) with n = 3*2^(2t-1) - 1 and 2(n+1)^2/9 equiangular lines."""
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    n = 3 * 2 ** (2 * t - 1) - 1
    lower, rem = divmod(2 * (n + 1) ** 2, 9)
    assert rem == 0  # (n+1)^2 = 9 * 4^(2t-1) by construction
    return n, lower


def bound_angle_distance(k: int, n: int) -> int:
    """C(C(n+1,2)+k-1, k): dimension of degree-k forms in the symmetric-matrix variables."""
    _require_grassmann_params(k, n)
    return math.comb(math.comb(n + 1, 2) + k - 1, k)


def bound_blokhuis(n: int) -> int:
    """C(2n+3, 4): the earlier bound for theta_1-equiangular planes."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.comb(2 * n + 3, 4)


def bound_chordal(n: int) -> int:
    """C(n+1, 2): simplex bound from the sphere embedding of projectors."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.comb(n + 1, 2)


def bound_fubini_study(k: int, n: int) -> int:
    """C(C(n,k)+1, 2): line bound applied in the exterior power."""
    _require_grassmann_params(k, n)
    return math.comb(math.comb(n, k) + 1, 2)


def bound_lemmens_seidel(k: int, n: int) -> int:
    """C(n+1,2) - C(k+1,2) + 1: bound on equi-isoclinic subspace families."""
    _require_grassmann_params(k, n)
    return math.comb(n + 1, 2) - math.comb(k + 1, 2) + 1


def size_chrss(p: int) -> tuple[int, int, int]:
    """(dimension, ambient, family size) = ((p-1)/2, p, C(p+1,2)) for odd prime p.

    Size formula only; the underlying Hadamard construction is out of scope.
    """
    if p < 3 or p % 2 == 0 or not _is_prime(p):
        raise NotOddPrimeError(f"need an odd prime, got {p}")
    return (p - 1) // 2, p, math.comb(p + 1, 2)


def _require_grassmann_params(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True
