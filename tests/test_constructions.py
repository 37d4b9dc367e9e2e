"""Line-set generators, the block-diagonal lift, the chordal lift, and Pluecker."""

import itertools
import math
import tracemalloc

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
    plucker_line_family,
    simplex_lines,
)
from grasspack.errors import AngleZeroError, FamilyTooSmallError, NotEquiangularError
from grasspack.family_io import family_to_doc, parse_family_doc
from grasspack.grassmann import principal_angles, random_subspace, subspace_from_spanning
from grasspack.linalg import EPS_ORTH
from grasspack.metrics import evaluate
from grasspack.packing import PackingProblem, perturb, solve
from grasspack.registry import CHORDAL, FUBINI_STUDY
from grasspack.verify import check_equiangular

from _oracles import complement, plucker_embed, projection_matrix, sign_fix_reference


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
    for third in ([np.cos(0.3), np.sin(0.3)], [0.6, 0.8]):
        with pytest.raises(NotEquiangularError):
            LineSet(np.array([[1.0, 0.0], [0.0, 1.0], third]))


def test_lineset_tolerance_is_the_callers():
    # |cos| of 0.5 +/- 1e-7: a spread of about 1.7e-7, inside 1e-6 but not 1e-8
    angles = np.array([0.0, np.pi / 3 + 2e-7, 2 * np.pi / 3])
    vectors = np.column_stack([np.cos(angles), np.sin(angles)])
    lines = LineSet(vectors, tol=1e-6)
    assert lines.common_cos == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(NotEquiangularError, match="spread 1.7"):
        LineSet(vectors, tol=1e-8)
    spread = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(0.3), np.sin(0.3)]])
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            LineSet(spread, tol=bad)


def test_lineset_keeps_no_tolerance():
    # tol only checks the vectors, so neither the class nor a set holds one
    # (simplex_lines(3), checked at 1e-11, cannot report the default 1e-9)
    assert not hasattr(LineSet, "tol")
    assert not hasattr(simplex_lines(3), "tol")
    # |cos| of 0.5 +/- 1e-9: a spread of about 1.7e-9, outside the default 1e-9
    angles = np.array([0.0, np.pi / 3 + 2e-9, 2 * np.pi / 3])
    vectors = np.column_stack([np.cos(angles), np.sin(angles)])
    with pytest.raises(NotEquiangularError, match="exceeds 1.0e-09"):
        LineSet(vectors)
    assert LineSet(vectors, tol=1e-8).common_cos == pytest.approx(0.5, abs=1e-8)
    assert LineSet(vectors, 1e-8).common_cos == pytest.approx(0.5, abs=1e-8)


def test_lineset_keeps_a_copy_of_its_metadata():
    given = {"common_cos": 0.9, "note": "x"}
    lines = LineSet(simplex_lines(3).vectors, metadata=given)
    assert lines.metadata == {"note": "x"}  # common_cos is measured, not kept
    given["note"] = "y"
    assert lines.metadata == {"note": "x"}
    assert LineSet(np.eye(2)).metadata == {}


def test_line_constructions_record_their_metadata():
    planes = SubspaceFamily(np.stack([np.eye(4)[:, :2], np.eye(4)[:, 2:]]))
    assert simplex_lines(3).metadata == {"construction": "simplex-lines", "n": 3}
    assert icosahedral_lines().metadata == {"construction": "icosahedral-lines"}
    assert orthonormal_lines(4).metadata == {"construction": "orthonormal-lines", "n": 4}
    assert plucker_line_family(planes).metadata == {
        "construction": "plucker", "source_k": 2, "source_n": 4
    }


def test_lift_rejects_vanishing_angle():
    t = 1e-5  # cos(t) is within the lift's 1e-9 floor of a zero angle
    vectors = np.array([[1.0, 0.0], [np.cos(t), np.sin(t)]])
    lines = LineSet(vectors)
    with pytest.raises(AngleZeroError):
        lift_lines_to_subspaces(lines, 2)


def test_lineset_measures_its_common_cos():
    # no caller-supplied cosine: the 4 simplex lines in R^3 keep arccos(1/3)
    with pytest.raises(TypeError):
        LineSet(simplex_lines(3).vectors, common_cos=0.9)
    lines = LineSet(simplex_lines(3).vectors)
    assert lines.common_cos == pytest.approx(1.0 / 3.0, abs=1e-12)
    lift = lift_lines_to_subspaces(lines, 2)
    assert lift.metadata["common_angle"] == pytest.approx(math.acos(1.0 / 3.0), abs=1e-12)


@pytest.mark.parametrize(
    "scale, accepted",
    [(1 - 8e-11, False), (1 - 4e-11, True), (1 + 4e-11, True), (1 + 8e-11, False)],
)
def test_lineset_unit_rule_is_the_family_rule_for_k_1(scale, accepted):
    # |<u, u> - 1| <= EPS_ORTH: scaling by 1 +/- 8e-11 moves <u, u> by about 1.6e-10
    vectors = simplex_lines(3).vectors * scale
    if accepted:
        assert lift_lines_to_subspaces(LineSet(vectors), 2).k == 2
    else:
        with pytest.raises(ValueError, match=r"member \d: representative is not orthonormal"):
            LineSet(vectors)


def test_every_accepted_lineset_lifts():
    for scale in np.linspace(1 - 1e-10, 1 + 1e-10, 81):
        try:
            lines = LineSet(simplex_lines(3).vectors * scale)
        except ValueError:
            continue
        assert len(lift_lines_to_subspaces(lines, 1)) == 4
    for bad in (math.nan, math.inf):
        vectors = simplex_lines(3).vectors.copy()
        vectors[1, 2] = bad
        with pytest.raises(ValueError, match="member 1: representative is not orthonormal"):
            LineSet(vectors)


def test_family_members_are_read_only_copies():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    picked = [
        *((i, family[i]) for i in range(len(family))),
        *enumerate(family),
        *enumerate(family.members),
        *zip(range(2, 7, 2), family[2:7:2]),
        (len(family) - 1, family[-1]),
    ]
    for i, member in picked:
        assert np.array_equal(member.rep, family.reps[i])
        assert not np.shares_memory(member.rep, family.reps)
        assert not member.rep.flags.writeable


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
    empty = SubspaceFamily(np.empty((0, 4, 2)))
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
            assert inner == pytest.approx(np.linalg.det(u.rep.T @ v.rep), abs=1e-9)


def test_plucker_line_family_orthogonal_planes():
    u = subspace_from_spanning(np.eye(4)[:, :2])
    v = subspace_from_spanning(np.eye(4)[:, 2:])
    lines = plucker_line_family(SubspaceFamily(np.stack([u.rep, v.rep])))
    assert lines.size == 2
    assert lines.n == 6
    assert lines.common_cos == pytest.approx(0.0, abs=1e-12)


def test_plucker_line_family_names_the_input_family():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)  # FS cosines 1/4 and 1/2
    with pytest.raises(NotEquiangularError) as caught:
        plucker_line_family(family)
    assert str(caught.value) == (
        "input family is not Fubini-Study-equiangular: "
        "|det(U_i^T U_j)| spread 1.250e-01 exceeds 1.0e-08"
    )


def test_plucker_line_family_rejects_empty_family():
    with pytest.raises(FamilyTooSmallError, match="at least one family member"):
        plucker_line_family(SubspaceFamily(np.empty((0, 4, 2))))


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
    sub = SubspaceFamily(np.stack([m.rep for m in family.members[:3]]))
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
    lift = lift_lines_to_subspaces(simplex_lines(3), 3)
    sub = SubspaceFamily(np.stack([m.rep for m in lift.members[:4]]))
    phis = np.array([plucker_embed(member) for member in sub])
    phis /= np.linalg.norm(phis, axis=1)[:, None]
    assert np.array_equal(plucker_line_family(sub).vectors, sign_fix_reference(phis.T).T)


def test_plucker_line_family_checks_its_input_once(monkeypatch):
    # the input check reads the members' k x k determinants: a family that fails it
    # builds no LineSet, and one that passes it builds one, whose scan is the only
    # one over Pluecker vectors
    built, scanned = [], []
    real_lineset, real_pair_stats = constructions.LineSet, constructions.pair_stats

    def counting_lineset(*args, **kwargs):
        built.append(args[0].shape)
        return real_lineset(*args, **kwargs)

    def recording_pair_stats(reps, values):
        scanned.append(reps.shape)
        return real_pair_stats(reps, values)

    family = lift_lines_to_subspaces(simplex_lines(2), 2)  # FS cosines 1/4 and 1/2
    monkeypatch.setattr(constructions, "LineSet", counting_lineset)
    monkeypatch.setattr(constructions, "pair_stats", recording_pair_stats)
    with pytest.raises(NotEquiangularError, match=r"^input family is not Fubini-Study-equiangular: "
                       r"\|det\(U_i\^T U_j\)\| spread 1.250e-01 exceeds 1.0e-08$"):
        plucker_line_family(family)
    assert (built, scanned) == ([], [(9, 4, 2)])
    scanned.clear()
    image = plucker_line_family(SubspaceFamily(family.reps[:3]))  # one shared slot: equiangular
    assert image.common_cos == pytest.approx(0.5, abs=1e-12)
    assert (built, scanned) == ([(3, 6)], [(3, 4, 2), (3, 6, 1)])


def test_plucker_line_family_rejects_non_equiangular():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    with pytest.raises(NotEquiangularError):
        plucker_line_family(family)  # full lift family is not FS-equiangular


def test_family_rejects_duplicates():
    rng = np.random.default_rng(137)
    u = random_subspace(4, 2, rng)
    with pytest.raises(ValueError):
        SubspaceFamily(np.stack([u.rep, u.rep]))
    # no size limit on the scan: a copy of member 0 behind 256 others is caught
    many = tuple(random_subspace(6, 2, rng) for _ in range(256))
    with pytest.raises(ValueError, match="members 0 and 256 coincide"):
        SubspaceFamily(np.stack([m.rep for m in many + many[:1]]))
    # three copies, all past the first pair chunks; (2, 699) comes first in (i, j) order
    members = [random_subspace(6, 2, rng) for _ in range(700)]
    members[650] = members[5]
    members[699] = members[2]
    members[698] = members[401]
    with pytest.raises(ValueError, match="members 2 and 699 coincide"):
        SubspaceFamily(np.stack([m.rep for m in members]))


def _planted_pair(angles, frame):
    """Members F_1 and F_1 cos(t) + F_2 sin(t), for the first two k-column blocks of `frame`."""
    k, t = len(angles), np.array(angles)
    return np.stack([frame[:, :k], frame[:, :k] * np.cos(t) + frame[:, k : 2 * k] * np.sin(t)])


def _turned(n, phi):
    """The rotation of R^n by phi in the plane of its first two axes."""
    frame = np.eye(n)
    frame[:2, :2] = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
    return frame


def _random_frame(n, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


@pytest.mark.parametrize(
    "pair",
    [
        # one geometric pair of lines gets one verdict in every frame
        *(_planted_pair([1.2e-10], _turned(2, phi)) for phi in (0.0, math.pi / 8, math.pi / 4, 1.0)),
        _planted_pair([5e-10], np.eye(100)),
        _planted_pair([5e-10], _random_frame(100, 173)),
        _planted_pair([1.5e-10, 1.5e-10], np.eye(6)),
        _planted_pair([2e-9, 5e-9], np.eye(4)),
    ],
    ids=["R2-0", "R2-pi_8", "R2-pi_4", "R2-1rad", "R100-axes", "R100-random", "planes-1.5e-10", "planted"],
)
def test_family_keeps_members_apart_by_more_than_eps_orth(pair):
    assert len(SubspaceFamily(pair)) == 2


def _sloppy_member():
    # a plane of R^6 whose representative is orthonormal only to about 5e-11
    u = random_subspace(6, 2, np.random.default_rng(181)).rep
    return u @ np.array([[1.0 + 2.5e-11, 1e-11], [1e-11, 1.0 - 2e-11]])


@pytest.mark.parametrize(
    "pair",
    [
        _planted_pair([0.9e-10], np.eye(2)),
        *(_planted_pair([8e-11, 8e-11], frame) for frame in (np.eye(6), _turned(6, 1.0), _random_frame(6, 179))),
        np.stack([_sloppy_member(), _sloppy_member()]),
        # a second basis of the same span, turned 0.3 rad within it
        np.stack([_sloppy_member(), _sloppy_member() @ _turned(2, 0.3)]),
    ],
    ids=["lines-0.9e-10", "planes-axes", "planes-1rad", "planes-random", "copy", "second-basis"],
)
def test_family_members_within_eps_orth_coincide(pair):
    with pytest.raises(ValueError, match="^family members 0 and 1 coincide$"):
        SubspaceFamily(pair)


def test_family_scan_memory_does_not_grow_with_n():
    # the filter keeps two lines of R^3000 1e-9 rad apart; testing them forms no n x n array
    pair = _planted_pair([1e-9], np.eye(3000, 2))
    tracemalloc.start()
    try:
        assert len(SubspaceFamily(pair)) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 3000 x 3000 projector alone takes 72 MB
    assert peak < 8 * 2**20


def test_lineset_scan_memory_does_not_grow_with_the_set():
    # common |cos| streams through pair_stats: no N x N Gram of 2 000 lines (32 MB alone)
    vectors = np.random.default_rng(29).standard_normal((2000, 3))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        with pytest.raises(NotEquiangularError, match="line set is not equiangular"):
            LineSet(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_lineset_rejects_repeated_and_near_lines():
    # a repeated line fails the family's distinctness scan, as in a line file; lines
    # 1.2e-10 rad apart are distinct, but their |cos| rounds to 1
    with pytest.raises(ValueError, match="^family members 0 and 1 coincide$"):
        LineSet([[0.6, 0.8], [0.6, 0.8]])
    with pytest.raises(ValueError, match="^family members 1 and 4 coincide$"):
        LineSet(simplex_lines(3).vectors[[0, 1, 2, 3, 1]])
    near = [[math.cos(t), math.sin(t)] for t in (math.pi / 8, math.pi / 8 + 1.2e-10)]
    with pytest.raises(ValueError, match=r"^common_cos must lie in \[0, 1\), got 1.0$"):
        LineSet(near)


def test_a_line_set_is_a_family():
    lines = simplex_lines(3)
    assert isinstance(lines, SubspaceFamily)
    assert lines.reps.shape == (4, 3, 1) and not lines.reps.flags.writeable
    assert np.shares_memory(lines.vectors, lines.reps)
    report = check_equiangular(lines, "thetaK")
    assert report.verdict
    assert report.common_value == pytest.approx(math.acos(1.0 / 3.0), abs=1e-12)
    complement = complement_family(icosahedral_lines())
    assert (len(complement), complement.k, complement.n) == (6, 2, 3)


PLANES = np.eye(3)[:, :2]


@pytest.mark.parametrize(
    "reps, message",
    [
        (np.zeros((3, 2)), r"expected an \(m, n, k\) stack, got shape \(3, 2\)"),
        (np.zeros((2, 3, 2, 1)), r"expected an \(m, n, k\) stack, got shape \(2, 3, 2, 1\)"),
        (np.zeros((2, 3, 0)), r"expected an \(m, n, k\) stack, got shape \(2, 3, 0\)"),
        (np.zeros((2, 0, 1)), r"expected an \(m, n, k\) stack, got shape \(2, 0, 1\)"),
        (np.empty((0, 2, 3)), r"member dimension k = 3 exceeds ambient dimension n = 2"),
        (np.stack([PLANES, 2 * PLANES]), r"member 1: representative is not orthonormal \(residual 3.000e\+00\)"),
    ],
    ids=["2d", "4d", "k0", "n0", "empty-k-above-n", "not-orthonormal"],
)
def test_family_rejects_a_malformed_stack(reps, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SubspaceFamily(reps)


def test_family_reps_are_read_only():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    assert family.reps.shape == (len(family), family.n, family.k)
    with pytest.raises(ValueError):
        family.reps[0] = 0.0


@pytest.mark.parametrize("name", ["reps", "metadata", "n", "k", "provenance", "extra"])
def test_family_attributes_cannot_be_set(name):
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    with pytest.raises(AttributeError):
        setattr(family, name, None)


def test_every_producer_keeps_provenance_in_metadata():
    lift = lift_lines_to_subspaces(simplex_lines(2), 2)
    problem = PackingProblem(k=1, n=2, m=3, metric="thetaK", restarts=1, max_iters=50)
    doc = family_to_doc(lift)
    del doc["metadata"]["provenance"]
    families = [
        SubspaceFamily(lift.reps),
        lift,
        chordal_lift(lift),
        complement_family(lift),
        perturb(lift, 1e-3, seed=1),
        solve(problem).family,
        parse_family_doc(family_to_doc(complement_family(lift))),
        parse_family_doc(doc),
    ]
    for family in families:
        assert family.provenance == family.metadata.get("provenance", "")
    assert [bool(family.provenance) for family in families] == [False] + [True] * 6 + [False]



def test_derived_families_drop_source_facts_that_no_longer_hold():
    lift = lift_lines_to_subspaces(simplex_lines(3), 2)  # 16 members in Gr(2, 6)
    angle = lift.metadata["common_angle"]
    provenance = "lift(k=2) of 4 lines in R^3"
    assert lift.metadata == {
        "construction": "lift", "k": 2, "common_angle": angle, "provenance": provenance
    }
    # complements and chordal lifts keep the nonzero angles but not k
    comp = complement_family(lift)
    assert comp.k == 4
    assert comp.metadata == {
        "construction": "complement",
        "common_angle": angle,
        "provenance": f"complement of [{provenance}]",
    }
    lifted = chordal_lift(lift)
    assert lifted.k == 3
    assert lifted.metadata == {
        "construction": "chordal_lift",
        "common_angle": angle,
        "provenance": f"chordal_lift of [{provenance}]",
    }
    # a perturbation keeps k but not the common angle
    moved = perturb(lift, 1e-3, seed=1)
    assert moved.metadata == {
        "construction": "perturb", "k": 2, "provenance": f"perturb(scale=0.001) of [{provenance}]"
    }

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
    return SubspaceFamily(np.stack([m.rep for m in members]))


@pytest.mark.parametrize("case", ["lift", "random", "pivot-edge"])
def test_complement_family_equals_memberwise_complement(case):
    rng = np.random.default_rng(151)
    family = {
        "lift": lambda: lift_lines_to_subspaces(simplex_lines(3), 3),
        "random": lambda: SubspaceFamily(
            np.stack([random_subspace(5, 2, rng).rep for _ in range(40)])
        ),
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
