"""Independent oracles used by the tests.

These deliberately avoid the package's own routes: eigenvalues come from
characteristic-polynomial roots, determinants from cofactor expansion,
projectors from the normal equations, principal angles from recursive
maximization over symmetric eigenproblems (not the package's SVDs), and the
chordal distance from its trace form.
"""

import numpy as np


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with det(xI - A) = x^n + c1 x^(n-1) + ... + cn.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for i in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-float(np.trace(a @ m)) / i)
    return np.array(coeffs)


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial, descending."""
    roots = np.roots(charpoly_coefficients(a))
    return np.sort(np.real(roots))[::-1]


def cofactor_det(a: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def projector_normal_equations(a: np.ndarray) -> np.ndarray:
    """Least-squares projector A (A^T A)^-1 A^T onto the column span of A."""
    a = np.asarray(a, dtype=float)
    return a @ np.linalg.solve(a.T @ a, a.T)


def principal_angles_recursive(u, v) -> np.ndarray:
    """Principal angles of two Subspaces by recursive maximization, ascending.

    Each step takes the top singular pair of the current cross-Gram G -- the
    exact maximizer of <x, y> over unit vectors in the two subspaces -- from
    the top eigenvector of G^T G, records its angle, and deflates both
    subspaces to the orthogonal complements of the maximizers.
    """
    basis_u = np.array(u.rep)
    basis_v = np.array(v.rep)
    angles: list[float] = []
    while basis_u.shape[1] > 0:
        gram = basis_u.T @ basis_v
        w, vecs = np.linalg.eigh(gram.T @ gram)
        top = float(np.sqrt(max(w[-1], 0.0)))
        if top <= 1e-13:
            # remaining directions are pairwise orthogonal
            angles.extend([np.pi / 2.0] * basis_u.shape[1])
            break
        angles.append(float(np.arccos(min(top, 1.0))))
        if basis_u.shape[1] == 1:
            break
        right = vecs[:, -1]
        left = gram @ right / top
        basis_u = _deflate(basis_u, left)
        basis_v = _deflate(basis_v, right)
    return np.sort(np.array(angles))


def _deflate(basis: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of basis @ coeff inside span(basis).

    `coeff` is a unit vector in the basis coordinates; the trailing columns
    of a complete QR of it span its orthogonal complement there.
    """
    q, _ = np.linalg.qr(coeff.reshape(-1, 1), mode="complete")
    return basis @ q[:, 1:]


def chordal_trace_form(u, v) -> float:
    """sqrt(k - tr(V^T U U^T V)) for two Subspaces (trace form of chordal distance).

    tr(V^T U U^T V) equals the squared Frobenius norm of U^T V.
    """
    g = u.rep.T @ v.rep
    return float(np.sqrt(max(float(u.k) - float(np.sum(g * g)), 0.0)))
