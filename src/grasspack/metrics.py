"""The distance zoo over principal-angle spectra, for the metrics of `registry`.

`pair_distances` reads chordal from the Frobenius norms of the residuals
(their singular values are the sines) and Fubini-Study from a determinant
of the cross-Grams, or from `spectra` where arccos cannot resolve it.  The
rest are functions of the spectrum from `spectra`: the angle distances
(theta_1, theta_F, theta_k) return one of the principal angles and geodesic
is the spectrum's norm.  Each reduces over the last axis, so one formula
serves a single spectrum and a whole stack of them.  All are pure and
symmetric in their two subspaces.
"""

from __future__ import annotations

import numpy as np

from .grassmann import Subspace, abs_cross_det, cross_residual, require_same_grassmannian, spectra
from .linalg import EPS_ANGLE, check_eps_angle
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

    The stacks broadcast against each other and hold members orthonormal
    within EPS_ORTH, as every `Subspace`, family member and QR output does;
    only `spectra` checks them further, with its ClampError tripwire.  Chordal
    is read from the Frobenius norms of the residuals B - A (A^T B), whose
    singular values are the sines of the principal angles.  Fubini-Study is
    arccos |det(A^T B)| where |det| <= cos(pi/4), which arccos resolves;
    other pairs take arcsin sqrt(1 - prod cos^2) over `spectra`, forming
    1 - prod cos^2 as -expm1(sum log1p(-sin^2)), free of cancellation.  Every
    other metric comes from `spectra`.
    """
    metric = get_metric(metric)
    if metric.id == "fubini_study":
        det = abs_cross_det(a, b)
        near = det > np.cos(np.pi / 4)
        dist = np.asarray(np.arccos(np.minimum(det, 1.0)))  # the near entries are replaced below
        if near.any():
            a, b = np.broadcast_arrays(a, b)
            sin2 = np.sin(spectra(a[near], b[near])) ** 2
            dist[near] = np.arcsin(np.sqrt(-np.expm1(np.log1p(-sin2).sum(axis=-1))))
        return dist[()]  # [()]: scalar for one pair
    if metric.id == "chordal":
        _, residual = cross_residual(a, b)
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
