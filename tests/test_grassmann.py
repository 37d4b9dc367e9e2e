"""Subspace, principal-angle, and complement-duality tests."""

import numpy as np
import pytest

from grasspack import grassmann
from grasspack.errors import ClampError, DimensionMismatchError, FullDimensionError
from grasspack.grassmann import (
    Subspace,
    pair_chunks,
    principal_angles,
    random_subspace,
    sign_fix_columns,
    spectra,
    subspace_from_spanning,
)
from grasspack.linalg import EPS_ANGLE, EPS_ORTH, orthonormalize

from _oracles import (
    complement,
    complement_duality_check,
    principal_angles_recursive,
    projection_matrix,
    projector_normal_equations,
    sign_fix_reference,
)


def span(*cols):
    return subspace_from_spanning(np.column_stack(cols))


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_subspace_rejects_k_above_n():
    with pytest.raises(ValueError):
        Subspace(np.ones((1, 2)))


def test_subspace_rep_is_read_only():
    u = span(e(0, 3))
    with pytest.raises(ValueError):
        u.rep[0, 0] = 2.0


def test_from_spanning_standard_basis():
    u = span(e(0, 4), e(1, 4))
    np.testing.assert_allclose(u.rep.T @ u.rep, np.eye(2), atol=1e-14)


def test_from_spanning_forced_plane():
    # columns span {x : x_2 = 0} in R^3
    a = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 0.0]])
    u = subspace_from_spanning(a)
    p = projection_matrix(u)
    expected = np.diag([1.0, 0.0, 1.0])
    np.testing.assert_allclose(p, expected, atol=1e-12)


def test_from_spanning_projector_matches_normal_equations():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((7, 3))
        u = subspace_from_spanning(a)
        np.testing.assert_allclose(
            projection_matrix(u), projector_normal_equations(a), atol=1e-10
        )


def test_principal_angles_identical_subspaces():
    u = span(e(0, 4), e(1, 4))
    np.testing.assert_allclose(principal_angles(u, u), [0.0, 0.0], atol=1e-7)


def test_principal_angles_orthogonal_subspaces():
    u = span(e(0, 4), e(1, 4))
    v = span(e(2, 4), e(3, 4))
    np.testing.assert_allclose(principal_angles(u, v), [np.pi / 2, np.pi / 2])


def test_principal_angles_forced_spectrum():
    t = 0.3
    u = span(e(0, 3), e(1, 3))
    v = span(e(0, 3), np.cos(t) * e(1, 3) + np.sin(t) * e(2, 3))
    np.testing.assert_allclose(principal_angles(u, v), [0.0, t], atol=1e-9)
    # rotation-planted pairs in a random frame of R^6: V = U cos(T) + W sin(T)
    frame = orthonormalize(np.random.default_rng(29).standard_normal((6, 6)))
    planted = [1e-12, 1e-9, 3e-8, 1e-6, 1e-3, 0.5, 1.2, np.pi / 2]
    for pair in zip(planted[0::2], planted[1::2]):
        t = np.array(pair)
        u = Subspace(frame[:, :2])
        v = Subspace(frame[:, :2] * np.cos(t) + frame[:, 2:4] * np.sin(t))
        got = principal_angles(u, v)
        assert np.all(np.abs(got - t) <= 1e-6 * t + 1e-15), (t, got)
    # planted line pairs, which take the direct k = 1 route
    for t in planted:
        u = Subspace(frame[:, :1])
        v = Subspace(frame[:, :1] * np.cos(t) + frame[:, 1:2] * np.sin(t))
        got = principal_angles(u, v)
        assert np.all(np.abs(got - t) <= 1e-6 * t + 1e-15), (t, got)


def test_principal_angles_match_eigenvalue_route():
    rng = np.random.default_rng(17)
    for _ in range(25):
        u = random_subspace(8, 3, rng)
        v = random_subspace(8, 3, rng)
        via_svd = principal_angles(u, v)
        gram = v.rep.T @ u.rep @ u.rep.T @ v.rep
        lam = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, 1.0)
        via_eig = np.arccos(np.sqrt(lam))
        np.testing.assert_allclose(via_svd, via_eig, atol=1e-9)


def test_spectra_rejects_cosines_above_one():
    # non-orthonormal stacks give cosines of 1.5, or 1.2 beside 0.5 (||C||_F^2 = 1.69 < k = 2):
    # a bug, not roundoff
    for scale in (1.5, np.array([1.2, 0.5])):
        with pytest.raises(ClampError):
            spectra(np.eye(3)[:, :2], scale * np.eye(3)[:, :2])
    lines = np.eye(3)[:, :1]
    with pytest.raises(ClampError):
        spectra(np.stack([lines, lines]), np.stack([lines, 1.5 * lines]))


def test_principal_angles_dimension_mismatch():
    u = span(e(0, 3))
    v = span(e(0, 4))
    with pytest.raises(DimensionMismatchError):
        principal_angles(u, v)


def test_recursive_identical_is_zero():
    rng = np.random.default_rng(19)
    u = random_subspace(5, 2, rng)
    np.testing.assert_allclose(
        principal_angles_recursive(u, u), [0.0, 0.0], atol=1e-7
    )


def test_recursive_lines_at_sixty_degrees():
    u = span(np.array([1.0, 0.0]))
    v = span(np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)]))
    np.testing.assert_allclose(
        principal_angles_recursive(u, v), [np.pi / 3], atol=1e-12
    )


def test_recursive_matches_spectral_route():
    rng = np.random.default_rng(23)
    for n, k in [(5, 2), (6, 3), (4, 2), (6, 2)]:
        for _ in range(10):
            u = random_subspace(n, k, rng)
            v = random_subspace(n, k, rng)
            np.testing.assert_allclose(
                principal_angles_recursive(u, v),
                principal_angles(u, v),
                atol=1e-6,
            )


def test_projection_matrix_single_axis():
    u = span(e(0, 2))
    np.testing.assert_allclose(projection_matrix(u), [[1.0, 0.0], [0.0, 0.0]])


def test_projection_matrix_diagonal_line():
    u = span(np.array([1.0, 1.0]) / np.sqrt(2))
    np.testing.assert_allclose(
        projection_matrix(u), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14
    )


def test_projection_matrix_properties():
    rng = np.random.default_rng(29)
    u = random_subspace(5, 2, rng)
    p = projection_matrix(u)
    assert np.trace(p) == pytest.approx(2.0, abs=1e-9)
    assert np.max(np.abs(p @ p - p)) <= 1e-10
    assert np.max(np.abs(p - p.T)) <= 1e-12


def test_complement_of_axis():
    u = span(e(0, 2))
    np.testing.assert_allclose(
        projection_matrix(complement(u)), [[0.0, 0.0], [0.0, 1.0]], atol=1e-12
    )


def test_complement_of_coordinate_plane():
    u = span(e(0, 4), e(1, 4))
    np.testing.assert_allclose(
        projection_matrix(complement(u)), np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-12
    )


def test_complement_projector_sum_is_identity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = random_subspace(6, 2, rng)
        total = projection_matrix(u) + projection_matrix(complement(u))
        assert np.max(np.abs(total - np.eye(6))) <= 1e-10


def test_complement_is_involution():
    rng = np.random.default_rng(37)
    u = random_subspace(7, 3, rng)
    back = complement(complement(u))
    assert np.max(np.abs(projection_matrix(back) - projection_matrix(u))) <= 1e-10


def test_complement_full_dimension_raises():
    u = span(e(0, 2), e(1, 2))
    with pytest.raises(FullDimensionError):
        complement(u)


def test_sign_fix_over_a_stack_matches_each_column():
    # entries at, just above and just below EPS_ORTH in either sign, exact
    # zeros and all-tiny columns, so pivots fall on every row and on none
    rng = np.random.default_rng(47)
    scale = EPS_ORTH * np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 3.0, 1e9])
    q = rng.choice(scale, size=(30, 4, 3)) * rng.choice([-1.0, 1.0], size=(30, 4, 3))
    fixed = sign_fix_columns(q)
    assert np.array_equal(fixed, np.stack([sign_fix_reference(m) for m in q]))
    assert np.array_equal(fixed[7], sign_fix_columns(q[7]))
    assert not np.array_equal(fixed, q)


def test_duality_check_lines_in_plane():
    u = span(e(0, 2))
    v = span(np.array([1.0, 1.0]) / np.sqrt(2))
    assert complement_duality_check(u, v)


def test_duality_check_identical_subspaces():
    rng = np.random.default_rng(41)
    u = random_subspace(5, 2, rng)
    assert complement_duality_check(u, u)


def test_duality_check_random_pairs():
    rng = np.random.default_rng(43)
    for _ in range(100):
        u = random_subspace(5, 2, rng)
        v = random_subspace(5, 2, rng)
        assert complement_duality_check(u, v)


def test_duality_check_angle_at_eps_angle_matches():
    # a single angle of exactly eps_angle: the lines compute it as eps_angle,
    # which counts as zero, and their complements one ulp above, which does
    # not; the counts differ, but the two angles match within any tol above
    # their 2.6e-23 gap
    t = EPS_ANGLE
    u = Subspace(e(0, 2)[:, None])
    v = Subspace(np.array([[np.cos(t)], [np.sin(t)]]))
    direct = principal_angles(u, v)
    dual = principal_angles(complement(u), complement(v))
    assert (direct > EPS_ANGLE).sum() == 0 and (dual > EPS_ANGLE).sum() == 1
    assert complement_duality_check(u, v)
    assert not complement_duality_check(u, v, tol=0.0)


@pytest.mark.parametrize("bad", [{"tol": np.nan}, {"tol": -1.0}])
def test_duality_check_rejects_bad_tolerance(bad):
    u = span(e(0, 3))
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        complement_duality_check(u, u, **bad)


@pytest.mark.parametrize("bad", [np.nan, 10.0])
def test_duality_check_rejects_bad_eps_angle(bad):
    u = span(e(0, 3))
    with pytest.raises(ValueError, match="eps_angle must lie in"):
        complement_duality_check(u, u, eps_angle=bad)


# 0-2 members; whole rows; rows split into runs of 3 and of 5 pairs; one
# pair per chunk when a single pair holds more entries than the cap
@pytest.mark.parametrize(
    "m, entries", [(0, 6), (1, 6), (2, 6), (40, None), (40, 18), (40, 30), (7, 5)]
)
def test_pair_chunks_cover_every_pair_once_in_order(monkeypatch, m, entries):
    if entries is not None:
        monkeypatch.setattr(grassmann, "PAIR_CHUNK_ENTRIES", entries)
    size = max(grassmann.PAIR_CHUNK_ENTRIES // 6, 1)
    reps = np.random.default_rng(m).standard_normal((m, 3, 2))
    chunks = list(pair_chunks(reps))
    assert len(chunks) == sum(-(-row // size) for row in range(1, m))
    if m < 2:
        return
    iu, ju = np.triu_indices(m, 1)
    np.testing.assert_array_equal(np.concatenate([c[0] for c in chunks]), iu)
    np.testing.assert_array_equal(np.concatenate([c[1] for c in chunks]), ju)
    for i, j, a, b in chunks:
        assert 0 < len(i) <= size and np.all(i == i[0])
        np.testing.assert_array_equal(np.broadcast_to(a, b.shape), reps[i])
        np.testing.assert_array_equal(b, reps[j])


def test_representative_invariance():
    rng = np.random.default_rng(47)
    for _ in range(10):
        u = random_subspace(6, 3, rng)
        v = random_subspace(6, 3, rng)
        rot = orthonormalize(rng.standard_normal((3, 3)))
        u2 = Subspace(u.rep @ rot)
        np.testing.assert_allclose(
            principal_angles(u2, v), principal_angles(u, v), atol=1e-9
        )


def test_orthogonal_invariance():
    rng = np.random.default_rng(53)
    for _ in range(10):
        u = random_subspace(6, 2, rng)
        v = random_subspace(6, 2, rng)
        q = orthonormalize(rng.standard_normal((6, 6)))
        u2 = Subspace(orthonormalize(q @ u.rep))
        v2 = Subspace(orthonormalize(q @ v.rep))
        np.testing.assert_allclose(
            principal_angles(u2, v2), principal_angles(u, v), atol=1e-9
        )


def test_symmetry():
    rng = np.random.default_rng(59)
    u = random_subspace(7, 3, rng)
    v = random_subspace(7, 3, rng)
    np.testing.assert_allclose(
        principal_angles(u, v), principal_angles(v, u), atol=1e-12
    )


def test_zero_law():
    rng = np.random.default_rng(61)
    u = random_subspace(5, 2, rng)
    v = Subspace(u.rep @ orthonormalize(rng.standard_normal((2, 2))))
    w = random_subspace(5, 2, rng)
    # same span: all angles at numerical zero, projectors agree
    assert np.all(principal_angles(u, v) <= EPS_ANGLE)
    assert np.max(np.abs(projection_matrix(u) - projection_matrix(v))) <= 1e-10
    # distinct span: some angle above threshold and projectors differ
    assert np.any(principal_angles(u, w) > EPS_ANGLE)
    assert np.max(np.abs(projection_matrix(u) - projection_matrix(w))) > 1e-6


def test_spectrum_invariants_random_sweep():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        u = random_subspace(n, k, rng)
        v = random_subspace(n, k, rng)
        spectrum = principal_angles(u, v)
        assert spectrum.shape == (k,)
        assert np.all(np.diff(spectrum) >= -1e-12)
        assert np.all(spectrum >= 0.0)
        assert np.all(spectrum <= np.pi / 2 + 1e-12)
