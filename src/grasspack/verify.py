"""Equiangularity and equi-isoclinicity checkers and the determinant certificate.

All three reduce a per-pair value with `grassmann.pair_stats`; the
equi-isoclinic deviation is a basis-free spectral norm.  A certificate
fails where its diagonal target is within its tolerance of zero.  The size
bounds, in exact integer arithmetic, are in `bounds`."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import bound_angle_distance
from .constructions import SubspaceFamily
from .errors import AlphaZeroError, FamilyTooSmallError
from .grassmann import cosines, pair_stats
from .linalg import EPS_ANGLE, check_eps_angle, check_tolerance
from .metrics import pair_distances
from .registry import get_metric

# A certificate of at most this many members keeps its evaluation matrix.
EVAL_MATRIX_MAX = 50


def _report_doc(report) -> dict:
    """A report's fields in order as JSON, arrays as lists; a None eval_matrix is left out."""
    keys = {"metric_id": "metric", "lam": "lambda"}
    return {
        keys.get(name, name): value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in asdict(report).items() if value is not None
    }


@dataclass(frozen=True)
class EquiangularReport:
    """Outcome of a pairwise common-angle scan."""

    metric_id: str
    pair_count: int
    common_value: float
    max_deviation: float
    tolerance: float
    verdict: bool

    to_dict = _report_doc


@dataclass(frozen=True)
class EquiisoclinicReport:
    """Outcome of the V^T U U^T V = lambda*I scan with one shared lambda."""

    lam: float
    pair_count: int
    max_deviation: float
    tolerance: float
    verdict: bool

    to_dict = _report_doc


@dataclass(frozen=True, eq=False)
class Certificate:
    """Evaluation of the degree-k determinant polynomials at every projector.

    eval_matrix[i, j] = det(U_i^T P_j U_i - (lambda tr(P_j) / k) I_k) where
    P_j is the j-th projector; for a family pairwise equiangular with common
    angle alpha (any angle distance) this is (1 - lambda)^k on the diagonal
    and 0 elsewhere, which forces the f_i to be linearly independent inside a
    space of dimension C(C(n+1,2) + k - 1, k).  For orthonormal members
    f_j(P_i) = f_i(P_j), so each pair i < j is evaluated once and the lower
    triangle mirrors the upper.  The matrix is kept only for m <= EVAL_MATRIX_MAX
    (None above that); the maxima cover the diagonal and every pair, so they
    reduce the kept matrix exactly.  The verdict needs both maxima at most
    tolerance = tol (1 + (1 - lambda)^k) < diagonal_target, and m <= bound.
    """

    m: int
    alpha: float
    lam: float
    diagonal_target: float
    max_diag_deviation: float
    max_offdiag: float
    bound: int
    tolerance: float
    verdict: bool
    eval_matrix: np.ndarray | None  # last, so its JSON key comes last

    to_dict = _report_doc


def check_equiangular(
    family: SubspaceFamily,
    metric,
    tol: float = 1e-8,
    eps_angle: float = EPS_ANGLE,
) -> EquiangularReport:
    """Scan all pairs; the common value is the mean, the verdict its max deviation.

    max |v - mean| = max(max - mean, mean - min), exactly in floating point.
    """
    check_tolerance(tol)
    check_eps_angle(eps_angle)
    metric = get_metric(metric)
    m = len(family)
    if m < 2:
        raise FamilyTooSmallError(f"equiangularity needs at least 2 members, got {m}")
    common, lo, hi = pair_stats(family.reps, lambda i, j, a, b: pair_distances(metric, a, b, eps_angle))
    deviation = float(max(hi - common, common - lo))
    return EquiangularReport(
        metric_id=metric.id,
        pair_count=m * (m - 1) // 2,
        common_value=common,
        max_deviation=deviation,
        tolerance=tol,
        verdict=deviation <= tol,
    )


def check_equiisoclinic(family: SubspaceFamily, tol: float = 1e-8) -> EquiisoclinicReport:
    """Check V^T U U^T V = lambda * I over all pairs, with lambda shared family-wide.

    The eigenvalues of V^T U U^T V are the squared cosines of the principal
    angles.  lambda, one value for the whole family as the definition
    requires, is their mean over every pair, and the deviation is the largest
    ||V^T U U^T V - lambda I||_2 = max(max cos^2 - lambda, lambda - min cos^2),
    which does not depend on the members' bases.
    """
    check_tolerance(tol)
    m = len(family)
    if m < 2:
        raise FamilyTooSmallError(f"equi-isoclinicity needs at least 2 members, got {m}")
    lam, lo, hi = pair_stats(family.reps, lambda i, j, a, b: cosines(np.swapaxes(a, -1, -2) @ b) ** 2)
    deviation = float(max(hi - lam, lam - lo))
    return EquiisoclinicReport(
        lam=lam,
        pair_count=m * (m - 1) // 2,
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
    distance with common angle `alpha` in (eps_angle, pi/2]; the certificate
    evaluates every polynomial at every projector and checks the
    diagonal/off-diagonal structure plus m <= C(C(n+1,2)+k-1, k).
    """
    check_tolerance(tol)
    check_eps_angle(eps_angle)
    if not eps_angle < alpha <= math.pi / 2:  # NaN fails this too
        raise AlphaZeroError(
            f"certificate requires alpha in (eps_angle, pi/2] = "
            f"({eps_angle!r}, {math.pi / 2!r}], got {alpha!r}"
        )
    m = len(family)
    if m < 1:
        raise FamilyTooSmallError("certificate needs at least one member")
    k = family.k
    lam = math.cos(alpha) ** 2
    target = (1.0 - lam) ** k
    reps = family.reps
    matrix = np.zeros((m, m)) if m <= EVAL_MATRIX_MAX else None
    traces = np.sum(reps * reps, axis=(-2, -1))  # tr(P_j) = ||U_j||_F^2

    def entries(i, j, a, b):
        # f_i(P_j) for U_i in stack a and U_j in stack b, kept as matrix[i, j] and [j, i] (see
        # Certificate): U_i^T P_j U_i = C C^T with C = U_i^T U_j, so no n x n projector is built
        cross = np.swapaxes(a, -1, -2) @ b
        shift = lam * traces[j] / k  # lambda tr(P_j) / k
        gram = cross @ np.swapaxes(cross, -1, -2)
        values = np.linalg.det(gram - shift[..., None, None] * np.eye(k))
        if matrix is not None:
            matrix[i, j] = matrix[j, i] = values
        return values

    diag = entries(np.arange(m), np.arange(m), reps, reps)
    max_diag_deviation = float(np.abs(diag - target).max())
    _, lo, hi = pair_stats(reps, entries)  # each pair i < j once
    max_offdiag = float(max(0.0, hi, -lo))  # 0.0 for no pairs, and never -0.0
    bound = bound_angle_distance(k, family.n)
    scaled = tol * (1.0 + abs(1.0 - lam) ** k)
    verdict = max_diag_deviation <= scaled < target and max_offdiag <= scaled and m <= bound
    return Certificate(
        m=m,
        alpha=alpha,
        lam=lam,
        diagonal_target=target,
        max_diag_deviation=max_diag_deviation,
        max_offdiag=max_offdiag,
        bound=bound,
        tolerance=scaled,
        verdict=verdict,
        eval_matrix=matrix,
    )
