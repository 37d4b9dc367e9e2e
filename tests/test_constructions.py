"""Line-set generators, the block-diagonal lift, the chordal lift, and Pluecker."""

import itertools
import math

import numpy as np
import pytest

from grasspack import constructions
from grasspack.constructions import (
    LineSet,
    SubspaceFamily,
    chordal_lift,
    complement_family,
    icosahedral_lines,
    lift_lines_to_subspaces,
    orthonormal_lines,
    plucker_embed,
    plucker_line_family,
    simplex_lines,
)
from grasspack.errors import AngleZeroError, FamilyTooSmallError, NotEquiangularError
from grasspack.grassmann import (
    complement,
    principal_angles,
    projection_matrix,
    random_subspace,
    subspace_from_spanning,
)
from grasspack.linalg import EPS_ORTH, determinant
from grasspack.metrics import CHORDAL, FUBINI_STUDY, evaluate

from _oracles import sign_fix_reference


def pairwise_abs_dots(vectors):
    gram = np.abs(vectors @ vectors.T)
    return gram[np.triu_indices(len(vectors), 1)]


def test_simplex_lines_n2():
    lines = simplex_lines(2)
    assert lines.size == 3
    assert lines.common_cos == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(pairwise_abs_dots(lines.vectors), 0.5, atol=1e-12)
    # the signed inner products are -1/n for simplex vertices
    signed = lines.vectors @ lines.vectors.T
    np.testing.assert_allclose(
        signed[np.triu_indices(3, 1)], -0.5 * np.ones(3), atol=1e-12
    )


def test_simplex_lines_n3():
    lines = simplex_lines(3)
    assert lines.size == 4
    assert lines.common_cos == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_simplex_lines_equiangular_sweep(n):
    lines = simplex_lines(n)
    assert lines.size == n + 1
    dots = pairwise_abs_dots(lines.vectors)
    assert np.max(np.abs(dots - 1.0 / n)) <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(lines.vectors, axis=1), 1.0, atol=1e-12)


def test_icosahedral_lines():
    lines = icosahedral_lines()
    assert lines.size == 6
    assert lines.n == 3
    np.testing.assert_allclose(np.linalg.norm(lines.vectors, axis=1), 1.0, atol=1e-12)
    target = 1.0 / math.sqrt(5.0)
    assert lines.common_cos == pytest.approx(target, abs=1e-9)
    np.testing.assert_allclose(pairwise_abs_dots(lines.vectors), target, atol=1e-9)


def test_orthonormal_lines():
    single = orthonormal_lines(1)
    assert single.size == 1
    lines = orthonormal_lines(3)
    np.testing.assert_allclose(pairwise_abs_dots(lines.vectors), 0.0, atol=0.0)
    assert orthonormal_lines(5).common_cos == 0.0


def test_lineset_rejects_non_equiangular():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(0.3), np.sin(0.3)]])
    with pytest.raises(NotEquiangularError):
        LineSet.from_vectors(vectors)


def test_lineset_tolerance_is_the_callers():
    # |cos| of 0.5 +/- 1e-7: a spread of about 1.7e-7, inside 1e-6 but not 1e-8
    angles = np.array([0.0, np.pi / 3 + 2e-7, 2 * np.pi / 3])
    vectors = np.column_stack([np.cos(angles), np.sin(angles)])
    lines = LineSet.from_vectors(vectors, tol=1e-6)
    assert lines.common_cos == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(NotEquiangularError, match="spread 1.7"):
        LineSet.from_vectors(vectors, tol=1e-8)
    spread = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(0.3), np.sin(0.3)]])
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            LineSet.from_vectors(spread, tol=bad)


def test_lift_rejects_vanishing_angle():
    t = 1e-5  # cos(t) is within the lift's 1e-9 floor of a zero angle
    vectors = np.array([[1.0, 0.0], [np.cos(t), np.sin(t)]])
    lines = LineSet.from_vectors(vectors)
    with pytest.raises(AngleZeroError):
        lift_lines_to_subspaces(lines, 2)


def test_block_flatten_inner_product_identity():
    rng = np.random.default_rng(113)
    k, n = 3, 4

    def flatten(i, vec):
        out = np.zeros(k * n)
        out[i * n : (i + 1) * n] = vec
        return out

    for _ in range(10):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        for i in range(k):
            for j in range(k):
                got = flatten(i, u) @ flatten(j, v)
                expected = (u @ v) if i == j else 0.0
                assert got == pytest.approx(expected, abs=1e-12)


def test_lift_simplex_k2_spectra_contract():
    lines = simplex_lines(2)
    family = lift_lines_to_subspaces(lines, 2)
    assert len(family) == 9  # N(2)^2
    assert (family.k, family.n) == (2, 4)
    alpha = np.pi / 3
    for i in range(9):
        for j in range(i + 1, 9):
            spectrum = principal_angles(family[i], family[j])
            for angle in spectrum:
                assert min(abs(angle), abs(angle - alpha)) <= 1e-8
            # distinct members share at least one angle alpha
            assert abs(spectrum[-1] - alpha) <= 1e-8
            # theta_F = theta_k = alpha on every distinct pair
            nonzero = spectrum[spectrum > 1e-7]
            assert abs(nonzero[0] - alpha) <= 1e-8
            assert abs(nonzero[-1] - alpha) <= 1e-8


def test_lift_k1_recovers_lines():
    lines = simplex_lines(3)
    family = lift_lines_to_subspaces(lines, 1)
    assert len(family) == 4
    assert (family.k, family.n) == (1, 3)
    for member, vec in zip(family.members, lines.vectors):
        np.testing.assert_allclose(
            projection_matrix(member), np.outer(vec, vec), atol=1e-12
        )


def test_lift_icosahedral_k2():
    family = lift_lines_to_subspaces(icosahedral_lines(), 2)
    assert len(family) == 36
    assert (family.k, family.n) == (2, 6)
    alpha = math.acos(1.0 / math.sqrt(5.0))
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            spectrum = principal_angles(family[i], family[j])
            for angle in spectrum:
                assert min(abs(angle), abs(angle - alpha)) <= 1e-8


def test_lift_enumerates_tuples_lexicographically():
    lines = simplex_lines(2)
    family = lift_lines_to_subspaces(lines, 2)
    tuples = list(itertools.product(range(3), repeat=2))
    for member, (a, b) in zip(family.members, tuples):
        np.testing.assert_allclose(member.rep[:2, 0], lines.vectors[a], atol=1e-15)
        np.testing.assert_allclose(member.rep[2:, 1], lines.vectors[b], atol=1e-15)


def test_chordal_lift_orthogonal_lines():
    lines = orthonormal_lines(2)
    family = lift_lines_to_subspaces(lines, 1)
    lifted = chordal_lift(family)
    assert (lifted.k, lifted.n) == (2, 3)
    assert evaluate(CHORDAL, lifted[0], lifted[1]) == pytest.approx(1.0, abs=1e-12)


def test_chordal_lift_preserves_pairwise_distances():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    lifted = chordal_lift(family)
    assert (lifted.k, lifted.n) == (3, 5)
    assert len(lifted) == 9
    for i in range(9):
        for j in range(i + 1, 9):
            before = evaluate(CHORDAL, family[i], family[j])
            after = evaluate(CHORDAL, lifted[i], lifted[j])
            assert after == pytest.approx(before, abs=1e-9)


def test_chordal_lift_empty_family():
    empty = SubspaceFamily(2, 4, ())
    lifted = chordal_lift(empty)
    assert len(lifted) == 0
    assert (lifted.k, lifted.n) == (3, 5)


def test_lift_family_not_chordal_equiangular_observation():
    # pairs differing in one vs two tuple slots carry different chordal values
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    values = {
        round(evaluate(CHORDAL, family[i], family[j]), 9)
        for i in range(9)
        for j in range(i + 1, 9)
    }
    assert len(values) > 1


def test_plucker_embed_coordinate_plane():
    u = subspace_from_spanning(np.eye(4)[:, :2])
    np.testing.assert_allclose(
        plucker_embed(u), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], atol=1e-14
    )


def test_plucker_embed_unit_norm():
    rng = np.random.default_rng(127)
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        u = random_subspace(n, k, rng)
        phi = plucker_embed(u)
        assert phi.shape == (math.comb(n, k),)
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-9)


def test_plucker_cauchy_binet():
    rng = np.random.default_rng(131)
    for n, k in [(5, 2), (6, 3)]:
        for _ in range(100):
            u = random_subspace(n, k, rng)
            v = random_subspace(n, k, rng)
            inner = plucker_embed(u) @ plucker_embed(v)
            assert inner == pytest.approx(determinant(u.rep.T @ v.rep), abs=1e-9)


def test_plucker_line_family_orthogonal_planes():
    u = subspace_from_spanning(np.eye(4)[:, :2])
    v = subspace_from_spanning(np.eye(4)[:, 2:])
    lines = plucker_line_family(SubspaceFamily(2, 4, (u, v)))
    assert lines.size == 2
    assert lines.n == 6
    assert lines.common_cos == pytest.approx(0.0, abs=1e-12)


def test_plucker_line_family_rejects_empty_family():
    with pytest.raises(FamilyTooSmallError, match="at least one family member"):
        plucker_line_family(SubspaceFamily(2, 4, ()))


def test_plucker_line_family_identity_on_lines():
    lines = simplex_lines(2)
    family = lift_lines_to_subspaces(lines, 1)
    image = plucker_line_family(family)
    np.testing.assert_allclose(
        np.abs(image.vectors), np.abs(lines.vectors), atol=1e-12
    )
    assert image.common_cos == pytest.approx(0.5, abs=1e-12)


def test_plucker_line_family_from_fs_equiangular_subfamily():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    # exhaustive filter: members 0, 1, 2 share the first tuple slot, so each
    # pair differs in exactly one slot and the FS distance is the constant alpha
    sub = SubspaceFamily(2, 4, tuple(family.members[:3]))
    fs_values = [
        evaluate(FUBINI_STUDY, sub[i], sub[j])
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    assert np.max(np.abs(np.array(fs_values) - fs_values[0])) <= 1e-12
    image = plucker_line_family(sub)
    assert image.size == 3
    assert image.n == 6
    assert image.common_cos == pytest.approx(np.cos(fs_values[0]), abs=1e-8)


@pytest.mark.parametrize("entries", [1, 200, 131072])
def test_plucker_line_family_equals_memberwise_embedding(monkeypatch, entries):
    # members 0-3 of the Gr(3,9) lift differ only in the last slot: FS-equiangular
    monkeypatch.setattr(constructions, "PAIR_CHUNK_ENTRIES", entries)
    sub = SubspaceFamily(3, 9, lift_lines_to_subspaces(simplex_lines(3), 3).members[:4])
    phis = np.array([plucker_embed(member) for member in sub])
    phis /= np.linalg.norm(phis, axis=1)[:, None]
    assert np.array_equal(plucker_line_family(sub).vectors, sign_fix_reference(phis.T).T)


def test_plucker_line_family_rejects_non_equiangular():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    with pytest.raises(NotEquiangularError):
        plucker_line_family(family)  # full lift family is not FS-equiangular


def test_family_rejects_duplicates():
    rng = np.random.default_rng(137)
    u = random_subspace(4, 2, rng)
    with pytest.raises(ValueError):
        SubspaceFamily(2, 4, (u, u))
    # no size limit on the scan: a copy of member 0 behind 256 others is caught
    many = tuple(random_subspace(6, 2, rng) for _ in range(256))
    with pytest.raises(ValueError, match="members 0 and 256 coincide"):
        SubspaceFamily(2, 6, many + many[:1])
    # three copies, all past the first pair chunks; (2, 699) comes first in (i, j) order
    members = [random_subspace(6, 2, rng) for _ in range(700)]
    members[650] = members[5]
    members[699] = members[2]
    members[698] = members[401]
    with pytest.raises(ValueError, match="members 2 and 699 coincide"):
        SubspaceFamily(2, 6, tuple(members))


def test_family_reps_are_read_only():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    assert family.reps.shape == (len(family), family.n, family.k)
    with pytest.raises(ValueError):
        family.reps[0] = 0.0


def test_family_rejects_mixed_shapes():
    rng = np.random.default_rng(139)
    u = random_subspace(4, 2, rng)
    v = random_subspace(5, 2, rng)
    with pytest.raises(Exception):
        SubspaceFamily(2, 4, (u, v))


def test_complement_family_maps_memberwise():
    family = lift_lines_to_subspaces(simplex_lines(2), 1)
    comp = complement_family(family)
    assert (comp.k, comp.n) == (1, 2)
    for orig, dual in zip(family.members, comp.members):
        total = projection_matrix(orig) + projection_matrix(dual)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-10)


def _tilted_e0_family(n, count, rng):
    # planes holding e_0 up to a 1e-11 tilt: every complement column leads
    # with an entry of about 1e-11, below EPS_ORTH, so its sign pivot is a
    # later entry
    members = []
    for _ in range(count):
        first = np.eye(n)[:, 0] + 1e-11 * rng.standard_normal(n)
        second = np.concatenate([[0.0], rng.standard_normal(n - 1)])
        members.append(subspace_from_spanning(np.column_stack([first, second])))
    return SubspaceFamily(2, n, members)


@pytest.mark.parametrize("case", ["lift", "random", "pivot-edge"])
def test_complement_family_equals_memberwise_complement(case):
    rng = np.random.default_rng(151)
    family = {
        "lift": lambda: lift_lines_to_subspaces(simplex_lines(3), 3),
        "random": lambda: SubspaceFamily(2, 5, [random_subspace(5, 2, rng) for _ in range(40)]),
        "pivot-edge": lambda: _tilted_e0_family(6, 20, rng),
    }[case]()
    comp = complement_family(family)
    assert (comp.k, comp.n) == (family.n - family.k, family.n)
    assert np.array_equal(comp.reps, np.stack([complement(member).rep for member in family]))
    # one SVD and one column-by-column sign fix per member
    memberwise = [
        sign_fix_reference(np.linalg.svd(rep, full_matrices=True)[0][:, family.k :])
        for rep in family.reps
    ]
    assert np.array_equal(comp.reps, np.stack(memberwise))
    if case == "lift":
        assert (len(family), family.k, family.n) == (64, 3, 9)
    if case == "pivot-edge":
        lead = np.abs(comp.reps[:, 0, :])
        assert (lead <= EPS_ORTH).all() and (lead > 0.0).any()
