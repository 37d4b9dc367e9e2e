"""Equiangularity checks, the certificate, and every bound formula."""

import math
import tracemalloc

import numpy as np
import pytest

from grasspack.constructions import (
    SubspaceFamily,
    complement_family,
    icosahedral_lines,
    lift_lines_to_subspaces,
    orthonormal_lines,
    simplex_lines,
)
from grasspack.errors import (
    AlphaZeroError,
    FamilyTooSmallError,
    NotOddPrimeError,
)
from grasspack import grassmann
from grasspack.bounds import (
    bound_angle_distance,
    bound_blokhuis,
    bound_chordal,
    bound_decaen,
    bound_fubini_study,
    bound_gerzon,
    bound_lemmens_seidel,
    bound_table,
    size_chrss,
)
from grasspack.grassmann import Subspace, random_subspace, subspace_from_spanning
from grasspack.linalg import CLAMP_SLACK, EPS_ORTH
from grasspack.metrics import pair_distances
from grasspack.registry import CHORDAL, FUBINI_STUDY, METRICS, THETA_1, THETA_F, THETA_K
from grasspack.verify import (
    polynomial_certificate,
    check_equiangular,
    check_equiisoclinic,
)

from _oracles import loose_pair, projection_matrix


@pytest.fixture(scope="module")
def simplex_family():
    return lift_lines_to_subspaces(simplex_lines(2), 1)


@pytest.fixture(scope="module")
def lift9():
    return lift_lines_to_subspaces(simplex_lines(2), 2)


def test_check_equiangular_simplex_theta_k(simplex_family):
    report = check_equiangular(simplex_family, THETA_K)
    assert report.verdict
    assert report.common_value == pytest.approx(np.pi / 3, abs=1e-9)
    assert report.pair_count == 3


def test_check_equiangular_lift_theta_f(lift9):
    report = check_equiangular(lift9, THETA_F)
    assert report.verdict
    assert report.common_value == pytest.approx(np.pi / 3, abs=1e-9)
    assert report.pair_count == 36


def test_check_equiangular_lift_theta_1_fails(lift9):
    report = check_equiangular(lift9, THETA_1)
    assert not report.verdict
    assert report.max_deviation > 0.1  # mixes 0 and pi/3


def test_check_equiangular_reads_members_the_orthonormality_rule_admits():
    # U^T U = I + 0.95e-10 J is within EPS_ORTH entrywise, yet the cosines reach
    # 1 + 120 * 0.95e-10, above 1 + CLAMP_SLACK; every metric reads the planted
    # angles (0, ..., 0, 1e-6) within k EPS_ORTH
    k, angle = 120, 1e-6
    family = SubspaceFamily(loose_pair(k, 2 * k, 0.95e-10, angle, np.random.default_rng(97)))
    cross = family.reps[0].T @ family.reps[1]
    assert np.linalg.svd(cross, compute_uv=False)[0] > 1.0 + CLAMP_SLACK
    for metric in METRICS.values():
        want = 0.0 if metric is THETA_1 else angle
        report = check_equiangular(family, metric)
        assert abs(report.common_value - want) <= k * EPS_ORTH, metric.id


def test_check_equiangular_family_too_small(simplex_family):
    lonely = SubspaceFamily(np.stack([simplex_family[0].rep]))
    with pytest.raises(FamilyTooSmallError):
        check_equiangular(lonely, THETA_K)


@pytest.fixture(scope="module")
def multi_chunk_family():
    # 300 members, 44 850 pairs
    rng = np.random.default_rng(163)
    return SubspaceFamily(np.stack([random_subspace(5, 2, rng).rep for _ in range(300)]))


# whole rows (299 chunks), and rows split into runs of at most 6 pairs (7 575 chunks)
@pytest.fixture(params=[grassmann.PAIR_CHUNK_ENTRIES, 64])
def chunk_entries(request, monkeypatch):
    monkeypatch.setattr(grassmann, "PAIR_CHUNK_ENTRIES", request.param)


@pytest.mark.parametrize("metric", list(METRICS))
def test_check_equiangular_matches_direct_reduction(multi_chunk_family, chunk_entries, metric):
    reps = multi_chunk_family.reps
    iu, ju = np.triu_indices(len(reps), 1)
    values = pair_distances(metric, reps[iu], reps[ju])
    mean = np.mean(values)
    report = check_equiangular(multi_chunk_family, metric)
    assert report.pair_count == values.size
    assert abs(report.common_value - mean) <= 1e-15
    assert abs(report.max_deviation - np.max(np.abs(values - mean))) <= 1e-15


def test_check_equiisoclinic_matches_two_pass_formula(multi_chunk_family, chunk_entries):
    reps = multi_chunk_family.reps
    k = multi_chunk_family.k
    iu, ju = np.triu_indices(len(reps), 1)
    cross = np.swapaxes(reps[iu], -1, -2) @ reps[ju]
    gram = np.swapaxes(cross, -1, -2) @ cross
    lam = np.trace(gram, axis1=-2, axis2=-1).sum() / (k * iu.size)
    report = check_equiisoclinic(multi_chunk_family)
    assert report.pair_count == iu.size
    assert abs(report.lam - lam) <= 1e-15
    # max ||gram - lam I||_2 over the pairs: the largest |eigenvalue - lam| of the symmetric grams
    assert abs(report.max_deviation - np.abs(np.linalg.eigvalsh(gram) - lam).max()) <= 1e-15


def test_check_equiangular_streams_in_bounded_memory():
    rng = np.random.default_rng(167)
    vectors = rng.standard_normal((1500, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    family = SubspaceFamily(np.stack([Subspace(v[:, None]).rep for v in vectors]))
    for check in (lambda f: check_equiangular(f, THETA_K), check_equiisoclinic):
        tracemalloc.start()
        try:
            report = check(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.pair_count == 1_124_250
        # storing every pair's value alone would take 9 MB
        assert peak < 2_000_000


@pytest.mark.parametrize("bad", [math.nan, 10.0])
def test_checks_reject_bad_eps_angle(lift9, bad):
    with pytest.raises(ValueError, match="eps_angle must lie in"):
        check_equiangular(lift9, THETA_F, eps_angle=bad)
    with pytest.raises(ValueError, match="eps_angle must lie in"):
        polynomial_certificate(lift9, np.pi / 3, eps_angle=bad)


def test_check_equiisoclinic_rotated_pair():
    t = 0.7
    u = subspace_from_spanning(np.eye(4)[:, :2])
    v = subspace_from_spanning(
        np.column_stack(
            [
                np.array([np.cos(t), 0.0, np.sin(t), 0.0]),
                np.array([0.0, np.cos(t), 0.0, np.sin(t)]),
            ]
        )
    )
    report = check_equiisoclinic(SubspaceFamily(np.stack([u.rep, v.rep])))
    assert report.verdict
    assert report.lam == pytest.approx(np.cos(t) ** 2, abs=1e-12)


def test_check_equiisoclinic_does_not_depend_on_the_basis():
    # cos^2 = 0.5 +- 1.2e-8: V^T U U^T V - I / 2 has spectral norm 1.2e-8 > tol in every basis
    # of V, while its largest entry falls to 1.2e-8 / sqrt(2) when V's basis turns by pi / 8
    t = np.arccos(np.sqrt(0.5 + np.array([1.2e-8, -1.2e-8])))
    u = np.eye(4)[:, :2]
    v = u * np.cos(t) + np.eye(4)[:, 2:] * np.sin(t)
    reports = []
    for phi in (0.0, np.pi / 8, np.pi / 4, 1.0):
        turn = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        reports.append(check_equiisoclinic(SubspaceFamily(np.stack([u, v @ turn]))))
    for report in reports:
        assert not report.verdict
        assert abs(report.max_deviation - reports[0].max_deviation) <= 1e-15
        assert report.max_deviation == pytest.approx(1.2e-8, rel=1e-6)


def test_check_equiisoclinic_orthogonal_planes():
    u = subspace_from_spanning(np.eye(4)[:, :2])
    v = subspace_from_spanning(np.eye(4)[:, 2:])
    report = check_equiisoclinic(SubspaceFamily(np.stack([u.rep, v.rep])))
    assert report.verdict
    assert report.lam == pytest.approx(0.0, abs=1e-12)


def test_check_equiisoclinic_lift_family_fails(lift9):
    report = check_equiisoclinic(lift9)
    assert not report.verdict  # cross-Gram spectra mix 1 and cos^2(alpha)


def test_equiisoclinic_report_to_dict():
    u = subspace_from_spanning(np.eye(4)[:, :2])
    v = subspace_from_spanning(np.eye(4)[:, 2:])
    report = check_equiisoclinic(SubspaceFamily(np.stack([u.rep, v.rep])), tol=1e-6)
    assert report.to_dict() == {
        "lambda": 0.0,
        "pair_count": 1,
        "max_deviation": 0.0,
        "tolerance": 1e-6,
        "verdict": True,
    }


def test_check_equiisoclinic_family_too_small(simplex_family):
    lonely = SubspaceFamily(np.stack([simplex_family[0].rep]))
    with pytest.raises(FamilyTooSmallError):
        check_equiisoclinic(lonely)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_check_equiisoclinic_rejects_bad_tolerance(lift9, tol):
    # same contract as check_equiangular and polynomial_certificate
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        check_equiisoclinic(lift9, tol)


def test_certificate_lift9(lift9):
    cert = polynomial_certificate(lift9, np.pi / 3)
    assert cert.verdict
    assert cert.lam == pytest.approx(0.25, abs=1e-12)
    assert cert.bound == 55
    assert cert.m == 9
    diag = np.diag(cert.eval_matrix)
    np.testing.assert_allclose(diag, 0.5625, atol=1e-8)
    off = cert.eval_matrix[~np.eye(9, dtype=bool)]
    assert np.max(np.abs(off)) <= 1e-8
    # the maxima reduce the kept matrix exactly, also where roundoff leaves
    # the entries inexact; the lower triangle mirrors the upper
    for cert in (cert, polynomial_certificate(_rotated(lift9, 197), np.pi / 3)):
        matrix = cert.eval_matrix
        np.testing.assert_array_equal(matrix, matrix.T)
        off = matrix[~np.eye(9, dtype=bool)]
        assert cert.max_diag_deviation == np.max(np.abs(np.diag(matrix) - cert.diagonal_target))
        assert cert.max_offdiag == np.max(np.abs(off))
    assert cert.max_diag_deviation > 0.0 and cert.max_offdiag > 0.0


def _rotated(family, seed):
    """The family moved by a random rotation of R^n: every angle kept, no entry exact."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((family.n, family.n)))
    return SubspaceFamily(q @ family.reps)


def test_certificate_matches_projector_oracle(chunk_entries):
    # 64 members of Gr(3, 9), beyond EVAL_MATRIX_MAX; with whole rows and with
    # rows split into chunks of 2 pairs
    family = _rotated(lift_lines_to_subspaces(simplex_lines(3), 3), 199)
    alpha = math.acos(1.0 / 3.0)
    cert = polynomial_certificate(family, alpha)
    assert cert.eval_matrix is None
    lam, k = cert.lam, family.k
    reps = family.reps
    projectors = np.stack([projection_matrix(member) for member in family])
    # oracle[i, j] = det(U_i^T P_j U_i - lambda tr(P_j) / k I), both triangles
    compressed = np.swapaxes(reps, -1, -2)[:, None] @ projectors[None] @ reps[:, None]
    shifts = lam * np.trace(projectors, axis1=-2, axis2=-1) / k
    oracle = np.linalg.det(compressed - shifts[None, :, None, None] * np.eye(k))
    diag_deviation = np.max(np.abs(np.diag(oracle) - cert.diagonal_target))
    assert abs(cert.max_diag_deviation - diag_deviation) <= 1e-15
    assert abs(cert.max_offdiag - np.max(np.abs(oracle[~np.eye(len(family), dtype=bool)]))) <= 1e-15
    assert cert.verdict


def test_certificate_single_member():
    rng = np.random.default_rng(149)
    member = random_subspace(4, 2, rng)
    cert = polynomial_certificate(SubspaceFamily(np.stack([member.rep])), np.pi / 3)
    assert cert.verdict
    assert cert.eval_matrix.shape == (1, 1)
    assert cert.eval_matrix[0, 0] == pytest.approx(0.5625, abs=1e-10)


def test_certificate_needs_a_member():
    with pytest.raises(FamilyTooSmallError, match="^certificate needs at least one member$"):
        polynomial_certificate(SubspaceFamily(np.empty((0, 4, 2))), np.pi / 3)


def test_certificate_simplex_lines_tight(simplex_family):
    cert = polynomial_certificate(simplex_family, np.pi / 3)
    assert cert.verdict
    assert cert.bound == 3
    assert cert.m == 3  # the bound is attained with equality
    np.testing.assert_allclose(np.diag(cert.eval_matrix), 0.75, atol=1e-10)
    # 1x1 determinants are <u_i, u_j>^2 - 1/4 = 0 off the diagonal
    off = cert.eval_matrix[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.0, atol=1e-10)


def test_certificate_reduces_rows_in_bounded_memory():
    rng = np.random.default_rng(173)
    vectors = rng.standard_normal((600, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    family = SubspaceFamily(np.stack([Subspace(v[:, None]).rep for v in vectors]))
    tracemalloc.start()
    try:
        cert = polynomial_certificate(family, np.pi / 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 600 x 600 evaluation matrix alone would take 2.9 MB
    assert peak < 1_000_000
    assert cert.eval_matrix is None and "eval_matrix" not in cert.to_dict()
    # 1 x 1 determinants: <u_i, u_j>^2 - 1/4
    full = (vectors @ vectors.T) ** 2 - 0.25
    assert cert.max_diag_deviation <= 1e-15
    assert cert.max_offdiag == pytest.approx(np.max(np.abs(full - 0.75 * np.eye(600))), abs=1e-15)


def test_certificate_alpha_zero_rejected(lift9):
    # principal angles lie in [0, pi/2]; the bound needs alpha > eps_angle
    for alpha in (0.0, 1e-9, -1.0, 2 * np.pi / 3, np.pi / 2 + 1e-12, math.inf, -math.inf, math.nan):
        with pytest.raises(AlphaZeroError, match=r"alpha in \(eps_angle, pi/2\]"):
            polynomial_certificate(lift9, alpha)


@pytest.mark.parametrize("alpha", [0.02, 0.003])
def test_certificate_fails_where_its_target_is_within_its_tolerance(alpha):
    # members of Gr(3, 6) at principal angles (0.001, 0.002, 0.003): every entry of the
    # evaluation matrix lies within the tolerance, so the structure shows nothing
    angles = np.array([0.001, 0.002, 0.003])
    u = np.vstack([np.eye(3), np.zeros((3, 3))])
    v = np.vstack([np.diag(np.cos(angles)), np.diag(np.sin(angles))])
    cert = polynomial_certificate(SubspaceFamily(np.stack([u, v])), alpha)
    lam = math.cos(alpha) ** 2
    assert (cert.m, cert.alpha, cert.lam, cert.bound) == (2, alpha, lam, bound_angle_distance(3, 6))
    assert cert.diagonal_target == (1.0 - lam) ** 3 == pytest.approx(math.sin(alpha) ** 6, rel=1e-9)
    assert cert.tolerance == 1e-8 * (1.0 + cert.diagonal_target)
    assert cert.max_diag_deviation <= 1e-20
    # f_0(P_1) = det(C C^T - lambda I) with C = diag(cos angles)
    assert cert.max_offdiag == pytest.approx(abs(np.prod(np.cos(angles) ** 2 - lam)), rel=1e-6, abs=1e-20)
    # the entry test alone passes: only the target at or below the tolerance fails it
    assert max(cert.max_diag_deviation, cert.max_offdiag) <= cert.tolerance
    assert cert.diagonal_target <= cert.tolerance
    assert cert.verdict is False


def test_certificate_sound_on_catalog_families(simplex_family, lift9):
    icosa = lift_lines_to_subspaces(icosahedral_lines(), 1)
    cases = [
        (simplex_family, np.pi / 3),
        (lift9, np.pi / 3),
        (icosa, math.acos(1.0 / math.sqrt(5.0))),
        (lift_lines_to_subspaces(icosahedral_lines(), 2), math.acos(1.0 / math.sqrt(5.0))),
        (lift_lines_to_subspaces(orthonormal_lines(4), 2), np.pi / 2),  # the top of the range
    ]
    for family, alpha in cases:
        assert check_equiangular(family, THETA_F).verdict
        assert polynomial_certificate(family, alpha).verdict


def test_bound_gerzon_values():
    assert bound_gerzon(2) == 3
    assert bound_gerzon(7) == 28
    assert bound_gerzon(1) == 1
    with pytest.raises(ValueError):
        bound_gerzon(0)


def test_bound_decaen_values():
    assert bound_decaen(1) == (5, 8)
    assert bound_decaen(2) == (23, 128)
    for t in range(1, 8):
        n, lower = bound_decaen(t)
        assert lower <= bound_gerzon(n)
    with pytest.raises(ValueError):
        bound_decaen(0)


def test_bound_angle_distance_values():
    for n in range(1, 20):
        assert bound_angle_distance(1, n) == bound_gerzon(n)
    assert bound_angle_distance(2, 4) == 55
    assert bound_angle_distance(2, 10) == 1540
    assert bound_blokhuis(10) == 8855
    assert bound_angle_distance(2, 10) < bound_blokhuis(10)
    with pytest.raises(ValueError):
        bound_angle_distance(3, 2)


def test_bound_blokhuis_values():
    assert bound_blokhuis(2) == 35
    assert bound_blokhuis(4) == 330
    for n in range(2, 101):
        assert bound_angle_distance(2, n) < bound_blokhuis(n)
    with pytest.raises(ValueError):
        bound_blokhuis(1)


def test_bound_chordal_values():
    assert bound_chordal(3) == 6
    assert bound_chordal(5) == 15
    for n in range(1, 30):
        assert bound_chordal(n) == bound_gerzon(n)


def test_bound_fubini_study_values():
    for n in range(1, 15):
        assert bound_fubini_study(1, n) == bound_gerzon(n)
    assert bound_fubini_study(2, 4) == 21
    assert bound_fubini_study(2, 5) == 55


def test_bound_lemmens_seidel_values():
    for n in range(1, 15):
        assert bound_lemmens_seidel(1, n) == bound_gerzon(n)
    assert bound_lemmens_seidel(2, 4) == 8
    for n in range(1, 10):
        assert bound_lemmens_seidel(n, n) == 1


def test_bound_table_rows():
    decaen = dict(bound_decaen(t) for t in (1, 2, 3))  # n = 5, 23, 95
    for n in range(1, 101):
        for k in range(1, n + 1):
            rows = dict(bound_table(k, n))
            if k == 1:
                assert {rows[name] for name in ("gerzon", "angle-distance", "chordal", "fubini-study")} == {
                    math.comb(n + 1, 2)
                }
            # de Caen's lines and their complements, and no other k
            if n in decaen and k in (1, n - 1):
                assert rows["decaen-lower"] == decaen[n] <= rows["chordal"]
            else:
                assert "decaen-lower" not in rows
    with pytest.raises(ValueError, match="^need 1 <= k <= n, got k=3, n=2$"):
        bound_table(3, 2)


def test_size_chrss_values():
    assert size_chrss(5) == (2, 5, 15)
    assert size_chrss(13) == (6, 13, 91)
    for p in (3, 5, 7, 11, 13):
        _, _, size = size_chrss(p)
        assert size == bound_chordal(p)
    for bad in (2, 9, 15, 1):
        with pytest.raises(NotOddPrimeError):
            size_chrss(bad)


def test_bounds_monotone_in_n():
    for k in (1, 2, 3):
        angle_distance = [bound_angle_distance(k, n) for n in range(k, 40)]
        fubini = [bound_fubini_study(k, n) for n in range(k, 40)]
        lemmens = [bound_lemmens_seidel(k, n) for n in range(k, 40)]
        for seq in (angle_distance, fubini, lemmens):
            assert all(b >= a for a, b in zip(seq, seq[1:]))
    gerzon = [bound_gerzon(n) for n in range(1, 40)]
    blokhuis = [bound_blokhuis(n) for n in range(2, 40)]
    chordal = [bound_chordal(n) for n in range(1, 40)]
    for seq in (gerzon, blokhuis, chordal):
        assert all(b >= a for a, b in zip(seq, seq[1:]))


def test_certificate_serialization_sizes(lift9):
    from grasspack.verify import Certificate

    cert = polynomial_certificate(lift9, np.pi / 3)
    assert "eval_matrix" in cert.to_dict()  # m = 9 <= 50: full matrix included
    big = Certificate(
        m=60,
        alpha=cert.alpha,
        lam=cert.lam,
        eval_matrix=None,  # what polynomial_certificate keeps beyond EVAL_MATRIX_MAX
        diagonal_target=cert.diagonal_target,
        max_diag_deviation=0.0,
        max_offdiag=0.0,
        bound=10**6,
        tolerance=cert.tolerance,
        verdict=True,
    )
    doc = big.to_dict()
    assert "eval_matrix" not in doc  # summary statistics only beyond 50 members
    assert doc["max_offdiag"] == 0.0


def test_duality_reduction_verdicts_and_values(lift9):
    rng = np.random.default_rng(151)
    random_family = SubspaceFamily(np.stack([random_subspace(5, 2, rng).rep for _ in range(4)]))
    for family in (lift9, random_family):
        comp = complement_family(family)
        for metric in (THETA_F, THETA_K, CHORDAL, FUBINI_STUDY):
            direct = check_equiangular(family, metric)
            dual = check_equiangular(comp, metric)
            assert direct.verdict == dual.verdict
            assert direct.common_value == pytest.approx(dual.common_value, abs=1e-8)
