"""The distance zoo over principal-angle spectra, for the metrics of `registry`.

`pair_distances` reads Fubini-Study from a determinant of the cross-Grams
and chordal from the Frobenius norms of the residuals (their singular
values are the sines), so neither runs the angle SVDs.  The rest are
functions of the spectrum from `spectra`: the angle distances (theta_1,
theta_F, theta_k) return one of the principal angles and geodesic is the
spectrum's norm.  Each reduces over the last axis, so one formula serves a
single spectrum and a whole stack of them.  All are pure and symmetric in
their two subspaces.
"""

from __future__ import annotations

import numpy as np

from .grassmann import Subspace, cosines, cross_residual, require_same_grassmannian, spectra
from .linalg import CLAMP_SLACK, EPS_ANGLE, check_eps_angle, clamp_unit_interval
from .registry import get_metric


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


def geodesic(spectrum):
    """sqrt(sum of theta_i^2): Riemannian distance on the Grassmannian."""
    return np.sqrt((np.asarray(spectrum, dtype=float) ** 2).sum(axis=-1))


_FROM_SPECTRUM = {"theta_1": theta_1, "theta_k": theta_k, "geodesic": geodesic}


def pair_distances(metric, a, b, eps_angle: float = EPS_ANGLE):
    """Distances between paired members of two (..., n, k) representative stacks.

    The stacks broadcast against each other.  Fubini-Study is read from a
    batched determinant of the cross-Grams A^T B and chordal from the
    Frobenius norms of the residuals B - A (A^T B), whose singular values are
    the sines of the principal angles; every other metric from `spectra`.
    The chordal branch keeps `spectra`'s ClampError guard: the largest
    cosine is at most the cross-Gram's Frobenius norm, so only cross-Grams
    whose squared norm exceeds 1 + CLAMP_SLACK need their singular values
    (that filter sits about CLAMP_SLACK / 2 below the guard, far more than
    the norm's roundoff).  For lines the norm is |a^T b| and no SVD runs.
    """
    metric = get_metric(metric)
    if metric.id == "fubini_study":
        cross = np.swapaxes(np.asarray(a, dtype=float), -1, -2) @ b
        return np.arccos(clamp_unit_interval(np.abs(np.linalg.det(cross))))
    if metric.id == "chordal":
        cross, residual = cross_residual(a, b)
        near = (cross * cross).sum(axis=(-2, -1)) > 1.0 + CLAMP_SLACK
        if near.any():
            cosines(cross[near])
        return np.sqrt(np.square(residual, out=residual).sum(axis=(-2, -1)))
    spectrum = spectra(a, b)
    if metric.id == "theta_F":
        return theta_F(spectrum, eps_angle)
    return _FROM_SPECTRUM[metric.id](spectrum)


def evaluate(metric, u: Subspace, v: Subspace, eps_angle: float = EPS_ANGLE) -> float:
    """Distance between two subspaces under `metric` (Metric, id, or CLI name)."""
    check_eps_angle(eps_angle)
    require_same_grassmannian(u, v)
    return pair_distances(metric, u.rep, v.rep, eps_angle)
