"""Equiangularity and equi-isoclinicity checkers and the determinant certificate.

The size bounds, in exact integer arithmetic, are in `bounds`."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import bound_angle_distance
from .constructions import SubspaceFamily
from .errors import AlphaZeroError, FamilyTooSmallError
from .grassmann import pair_chunks
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
    triangle mirrors the upper.  The matrix is kept only for
    m <= EVAL_MATRIX_MAX (None above that); the maxima cover the diagonal and
    every pair, so they reduce the kept matrix exactly.
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

    The scan keeps only each chunk's sum, added with `math.fsum`, and the
    running minimum and maximum: max |v - mean| = max(max - mean, mean - min),
    exactly in floating point.
    """
    check_tolerance(tol)
    check_eps_angle(eps_angle)
    metric = get_metric(metric)
    m = len(family)
    if m < 2:
        raise FamilyTooSmallError(f"equiangularity needs at least 2 members, got {m}")
    sums, lo, hi = [], np.inf, -np.inf
    for _, _, a, b in pair_chunks(family.reps):
        values = pair_distances(metric, a, b, eps_angle)
        sums.append(values.sum())
        lo = np.minimum(lo, values.min())
        hi = np.maximum(hi, values.max())
    pair_count = m * (m - 1) // 2
    common = math.fsum(sums) / pair_count
    deviation = float(max(hi - common, common - lo))
    return EquiangularReport(
        metric_id=metric.id,
        pair_count=pair_count,
        common_value=common,
        max_deviation=deviation,
        tolerance=tol,
        verdict=deviation <= tol,
    )


def check_equiisoclinic(family: SubspaceFamily, tol: float = 1e-8) -> EquiisoclinicReport:
    """Check V^T U U^T V = lambda * I over all pairs, with lambda shared family-wide.

    lambda is estimated jointly as the grand mean of the diagonal means, since
    the definition requires a single value for the whole family.  One scan
    keeps each chunk's trace sum, added with `math.fsum`, the extreme diagonal
    entries and the largest off-diagonal magnitude, which bound
    max |V^T U U^T V - lambda I| exactly.
    """
    check_tolerance(tol)
    m = len(family)
    if m < 2:
        raise FamilyTooSmallError(f"equi-isoclinicity needs at least 2 members, got {m}")
    k = family.k
    off = ~np.eye(k, dtype=bool)
    trace_sums, diag_lo, diag_hi, off_hi = [], np.inf, -np.inf, 0.0
    for _, _, a, b in pair_chunks(family.reps):
        # V^T U U^T V for U = member i and V = member j
        cross = np.swapaxes(a, -1, -2) @ b
        gram = np.swapaxes(cross, -1, -2) @ cross
        diag = np.diagonal(gram, axis1=-2, axis2=-1)
        trace_sums.append(diag.sum())
        diag_lo = np.minimum(diag_lo, diag.min())
        diag_hi = np.maximum(diag_hi, diag.max())
        off_hi = np.maximum(off_hi, np.abs(gram[:, off]).max(initial=0.0))
    pair_count = m * (m - 1) // 2
    lam = math.fsum(trace_sums) / (k * pair_count)
    deviation = float(max(diag_hi - lam, lam - diag_lo, off_hi))
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

    def entries(a, b):
        # f_i(P_j) for U_i in stack a and U_j in stack b: U_i^T P_j U_i = C C^T
        # with C = U_i^T U_j, so no n x n projector is built
        cross = np.swapaxes(a, -1, -2) @ b
        shift = lam * np.sum(b * b, axis=(-2, -1)) / k  # lambda tr(P_j) / k
        gram = cross @ np.swapaxes(cross, -1, -2)
        return np.linalg.det(gram - shift[..., None, None] * np.eye(k))

    diag = entries(reps, reps)
    max_diag_deviation = float(np.abs(diag - target).max())
    # each pair i < j once: f_j(P_i) = f_i(P_j) (see Certificate)
    matrix = np.diag(diag) if m <= EVAL_MATRIX_MAX else None
    max_offdiag = 0.0
    for i, j, a, b in pair_chunks(reps):
        values = entries(a, b)
        max_offdiag = max(max_offdiag, float(np.abs(values).max()))
        if matrix is not None:
            matrix[i, j] = matrix[j, i] = values
    bound = bound_angle_distance(k, family.n)
    scaled = tol * (1.0 + abs(1.0 - lam) ** k)
    verdict = max_diag_deviation <= scaled and max_offdiag <= scaled and m <= bound
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
