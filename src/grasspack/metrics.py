"""The distance zoo over principal-angle spectra, as a uniform registry.

Angle distances (theta_1, theta_F, theta_k) return one of the principal
angles; chordal, geodesic and Fubini-Study are derived functions of the
spectrum.  Every evaluator reduces over the last axis, so one formula serves
a single spectrum and a whole stack of them.  All are pure and symmetric in
their two subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownMetricError
from .grassmann import Subspace, require_same_grassmannian, spectra
from .linalg import EPS_ANGLE, clamp_unit_interval


@dataclass(frozen=True)
class Metric:
    """Registry entry: identifier plus the classification flags."""

    id: str
    cli_name: str
    is_angle_distance: bool
    is_proper: bool


THETA_1 = Metric("theta_1", "theta1", is_angle_distance=True, is_proper=False)
THETA_F = Metric("theta_F", "thetaF", is_angle_distance=True, is_proper=True)
THETA_K = Metric("theta_k", "thetaK", is_angle_distance=True, is_proper=True)
CHORDAL = Metric("chordal", "chordal", is_angle_distance=False, is_proper=True)
GEODESIC = Metric("geodesic", "geodesic", is_angle_distance=False, is_proper=True)
FUBINI_STUDY = Metric(
    "fubini_study", "fubini-study", is_angle_distance=False, is_proper=True
)

METRICS: dict[str, Metric] = {
    m.id: m for m in (THETA_1, THETA_F, THETA_K, CHORDAL, GEODESIC, FUBINI_STUDY)
}


def get_metric(name) -> Metric:
    """Look a metric up by id ("theta_F") or CLI name ("thetaF")."""
    if isinstance(name, Metric):
        return name
    for metric in METRICS.values():
        if name in (metric.id, metric.cli_name):
            return metric
    known = ", ".join(m.cli_name for m in METRICS.values())
    raise UnknownMetricError(f"unknown metric {name!r}; known: {known}")


def theta_1(spectrum):
    """Smallest principal angle (minimum angle between any pair of vectors)."""
    return np.asarray(spectrum, dtype=float)[..., 0][()]  # [()]: scalar for one spectrum


def theta_F(spectrum, eps_angle: float = EPS_ANGLE):
    """Smallest nonzero principal angle; 0 when all angles are numerically zero.

    The zero return covers U = V, where there is no nonzero angle to take the
    minimum over; this keeps theta_F a proper distance.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    nonzero = np.where(spectrum > eps_angle, spectrum, np.inf).min(axis=-1)
    return np.where(np.isfinite(nonzero), nonzero, 0.0)[()]  # [()]: scalar for one spectrum


def theta_k(spectrum):
    """Largest principal angle."""
    return np.asarray(spectrum, dtype=float)[..., -1][()]  # [()]: scalar for one spectrum


def chordal(spectrum):
    """sqrt(sum of sin^2 theta_i)."""
    return np.sqrt((np.sin(np.asarray(spectrum, dtype=float)) ** 2).sum(axis=-1))


def geodesic(spectrum):
    """sqrt(sum of theta_i^2): Riemannian distance on the Grassmannian."""
    return np.sqrt((np.asarray(spectrum, dtype=float) ** 2).sum(axis=-1))


def fubini_study(u: Subspace, v: Subspace) -> float:
    """arccos|det(U^T V)|, computed in determinant form (no angle extraction)."""
    require_same_grassmannian(u, v)
    return pair_distances(FUBINI_STUDY, u.rep, v.rep)


def fubini_study_from_spectrum(spectrum):
    """Product-of-cosines form of the Fubini-Study distance (cross-check route)."""
    cosines = np.prod(np.cos(np.asarray(spectrum, dtype=float)), axis=-1)
    return np.arccos(clamp_unit_interval(cosines))


_FROM_SPECTRUM = {
    "theta_1": theta_1,
    "theta_k": theta_k,
    "chordal": chordal,
    "geodesic": geodesic,
    "fubini_study": fubini_study_from_spectrum,
}


def from_spectrum(metric, spectrum, eps_angle: float = EPS_ANGLE):
    """Evaluate a metric on a precomputed angle spectrum, or a (..., k) stack of them."""
    metric = get_metric(metric)
    if metric.id == "theta_F":
        return theta_F(spectrum, eps_angle)
    return _FROM_SPECTRUM[metric.id](spectrum)


def pair_distances(metric, a, b, eps_angle: float = EPS_ANGLE):
    """Distances between paired members of two (..., n, k) representative stacks.

    The stacks broadcast against each other.  Fubini-Study is read from a
    batched determinant of the cross-Grams; every other metric from `spectra`.
    """
    metric = get_metric(metric)
    if metric.id == "fubini_study":
        cross = np.swapaxes(np.asarray(a, dtype=float), -1, -2) @ b
        return np.arccos(clamp_unit_interval(np.abs(np.linalg.det(cross))))
    return from_spectrum(metric, spectra(a, b), eps_angle)


def evaluate(metric, u: Subspace, v: Subspace, eps_angle: float = EPS_ANGLE) -> float:
    """Distance between two subspaces under `metric` (Metric, id, or CLI name)."""
    require_same_grassmannian(u, v)
    return pair_distances(metric, u.rep, v.rep, eps_angle)
