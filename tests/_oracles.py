"""Independent oracles used by the tests.

These deliberately avoid the package's own routes: eigenvalues come from
characteristic-polynomial roots, determinants from cofactor expansion,
projectors from the normal equations, principal angles from recursive
maximization over symmetric eigenproblems (not the package's SVDs), and the
chordal distance from its trace form.  `anneal_reference` is the annealer
that scores one move per restart at a time, the loop `packing._anneal`
must reproduce bit for bit, and `sign_fix_reference` the column-by-column
sign fix that `grassmann.sign_fix_columns` must reproduce over whole stacks.

The paper's identities are checked through the forms below, which the
library itself does not use: the projector U U^T (`projection_matrix`), the
complement of one Subspace and complement duality of the nonzero angles
(`complement`, `complement_duality_check`), the Pluecker coordinates whose
inner products are det(U^T V) by Cauchy-Binet (`plucker_embed`), and the
spectrum forms of the chordal and Fubini-Study distances (`chordal`,
`fubini_study_from_spectrum`), which `metrics.pair_distances` reads from the
residuals and, where arccos resolves it, a determinant instead.
`loose_pair` builds two members with known principal angles that are
orthonormal only within the member rule's bound.
"""

import itertools

import numpy as np

from grasspack.errors import RankDeficientError
from grasspack.grassmann import Subspace, complements, principal_angles, require_same_grassmannian
from grasspack.linalg import (
    EPS_ANGLE,
    EPS_ORTH,
    check_eps_angle,
    check_tolerance,
    orthonormalize_stack,
)
from grasspack.metrics import pair_distances
from grasspack.packing import MIN_SEPARATION, MOVE_BLOCK, STEP, TEMPERATURE, _schedule


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


def sign_fix_reference(q: np.ndarray) -> np.ndarray:
    """One n x k matrix, each column flipped so its first entry above EPS_ORTH is positive."""
    q = np.array(q, dtype=float)
    for j in range(q.shape[1]):
        nz = np.flatnonzero(np.abs(q[:, j]) > EPS_ORTH)
        if nz.size and q[nz[0], j] < 0.0:
            q[:, j] = -q[:, j]
    return q


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


def projection_matrix(u) -> np.ndarray:
    """Orthogonal projector U U^T onto a Subspace (basis-independent)."""
    return u.rep @ u.rep.T


def complement(u) -> Subspace:
    """Orthogonal complement of a Subspace in Gr(n-k, n)."""
    return Subspace(complements(u.rep))


def complement_duality_check(u, v, tol: float = 1e-8, eps_angle: float = EPS_ANGLE) -> bool:
    """True iff the nonzero principal angles of (U, V) match those of (U-perp, V-perp).

    Angles above eps_angle count as nonzero.  The c largest angles of each
    side, c the larger nonzero count, must match within `tol` as sorted
    lists: where the counts differ, an angle at or below eps_angle stands in
    for one just above it on the other side.
    """
    check_tolerance(tol)
    check_eps_angle(eps_angle)
    require_same_grassmannian(u, v)
    direct = principal_angles(u, v)
    dual = principal_angles(complement(u), complement(v))
    count = max(int((direct > eps_angle).sum()), int((dual > eps_angle).sum()))
    if count > min(direct.size, dual.size):
        return False
    gaps = np.abs(direct[direct.size - count :] - dual[dual.size - count :])
    return bool(gaps.max(initial=0.0) <= tol)


def plucker_embed(u) -> np.ndarray:
    """Pluecker coordinates of a Subspace: the k x k row minors of its representative.

    Row subsets are enumerated in lexicographic order; the result is a unit
    vector of length binom(n, k) and <phi(U), phi(V)> = det(U^T V) by
    Cauchy-Binet.
    """
    rows = np.array(list(itertools.combinations(range(u.n), u.k)))
    return np.linalg.det(u.rep[rows])


def chordal(spectrum):
    """Spectrum form of the chordal distance: sqrt(sum of sin^2 theta_i)."""
    return np.sqrt((np.sin(np.asarray(spectrum, dtype=float)) ** 2).sum(axis=-1))


def fubini_study_from_spectrum(spectrum):
    """Product-of-cosines form of the Fubini-Study distance: arccos(prod cos theta_i)."""
    # angles in [0, pi/2] have cosines in [0, 1], so their product needs no clamp
    return np.arccos(np.prod(np.cos(np.asarray(spectrum, dtype=float)), axis=-1))


def loose_pair(k: int, n: int, eps: float, angle: float, rng) -> np.ndarray:
    """Two members of Gr(k, n), stacked, with U^T U = I + eps J (J all ones) up to roundoff.

    Each is orthonormal within `eps` entrywise while ||U^T U - I||_2 = k eps,
    so the largest cosine between them exceeds 1 by about k eps.  The second
    is the first with its first column turned by `angle` out of the span, so
    the principal angles are k - 1 zeros and `angle`, up to O(eps angle).
    """
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    u = q[:, :k] @ (np.eye(k) + (np.sqrt(1.0 + k * eps) - 1.0) / k)  # Q (I + eps J)^(1/2)
    v = u.copy()
    v[:, 0] = np.cos(angle) * u[:, 0] + np.sin(angle) * q[:, k]
    return np.stack([u, v])


def anneal_reference(problem, metric):
    """`packing._anneal` one iteration at a time: same draws, same arithmetic.

    Returns per-restart best values, best reps, best iterations, histories
    and the (3, R) counts of accepted moves, moves rejected for rank and
    moves rejected for separation.
    """
    k, n, m = problem.k, problem.n, problem.m
    iters, restarts = problem.max_iters, problem.restarts
    maximize = problem.objective == "maximin"
    separation = max(problem.min_separation, MIN_SEPARATION)
    rngs = [np.random.default_rng([problem.seed % (2**63), r]) for r in range(restarts)]

    reps, independent = orthonormalize_stack(
        np.stack([rng.standard_normal((m, n, k)) for rng in rngs])
    )
    if not independent.all():
        raise RankDeficientError("initial members are numerically dependent")

    iu, ju = np.triu_indices(m, 1)
    pos = np.array([np.flatnonzero((iu == r) | (ju == r)) for r in range(m)])
    partner = np.where(iu[pos] == np.arange(m)[:, None], ju[pos], iu[pos])

    def score(values, beta):
        if maximize:
            lo = values.min(axis=-1)
            soft = lo - np.log(np.exp((lo[..., None] - values) * beta).sum(axis=-1)) / beta
            return soft, lo
        var = values.var(axis=-1)
        return -var, var

    vals = np.empty((2, restarts, len(iu)))
    vals[0] = pair_distances(metric, reps[:, iu], reps[:, ju])
    best_value = score(vals[0], 1.0)[1]
    best_reps = reps.copy()
    best_iteration = np.zeros(restarts, dtype=int)
    history = [[(0, float(v))] for v in best_value]
    counts = np.zeros((3, restarts), dtype=int)
    flat_reps = reps.reshape(restarts * m, n, k)
    flat_moved = vals[1].reshape(-1)
    rows = np.arange(restarts)

    for start in range(0, iters, MOVE_BLOCK):
        size = min(MOVE_BLOCK, iters - start)
        draws = [(rng.integers(m, size=size), rng.standard_normal((size, n, k)), rng.random(size))
                 for rng in rngs]
        moved = np.stack([d[0] for d in draws], axis=1)
        uniform = np.stack([d[2] for d in draws], axis=1)
        i = np.arange(start, start + size)
        betas = 1.0 / _schedule(*TEMPERATURE, iters, i)
        steps = _schedule(*STEP, iters, i)
        moves = np.stack([d[1] for d in draws], axis=1) * steps[:, None, None, None]
        members = moved + rows * m
        partners = partner[moved] + rows[:, None] * m
        pairs = pos[moved] + rows[:, None] * len(iu)
        for it, member, partner_row, pair, move, u, beta in zip(
            i + 1, members, partners, pairs, moves, uniform, betas
        ):
            current = flat_reps[member]
            cand, rank_ok = orthonormalize_stack(current + move)
            new_row = pair_distances(metric, cand[:, None], flat_reps[partner_row])
            separated = new_row.min(axis=-1) >= separation
            ok = rank_ok & separated
            vals[1] = vals[0]
            flat_moved[pair] = new_row
            soft, value = score(vals, beta)
            accept = ok & (u < np.exp(np.minimum(soft[1] - soft[0], 0.0) * beta))
            counts += [accept, ~rank_ok, rank_ok & ~separated]
            if not accept.any():
                continue
            np.copyto(vals[0], vals[1], where=accept[:, None])
            flat_reps[member] = np.where(accept[:, None, None], cand, current)
            improved = accept & (value[1] > best_value if maximize else value[1] < best_value)
            for r in np.flatnonzero(improved):
                best_value[r] = value[1, r]
                best_iteration[r] = it
                best_reps[r] = reps[r]
                history[r].append((int(it), float(value[1, r])))
    return best_value, best_reps, best_iteration, history, counts
