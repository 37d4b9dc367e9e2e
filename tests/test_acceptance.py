"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible under pytest -s or on failure)
and enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from grasspack.cli import main
from grasspack.constructions import (
    icosahedral_lines,
    lift_lines_to_subspaces,
    plucker_embed,
    simplex_lines,
)
from grasspack.family_io import dumps_json, family_to_doc, save_family
from grasspack.grassmann import (
    complement,
    principal_angles,
    random_subspace,
)
from grasspack.linalg import EPS_ANGLE, determinant, symmetric_eigenvalues
from grasspack.metrics import (
    CHORDAL,
    FUBINI_STUDY,
    THETA_1,
    THETA_F,
    THETA_K,
    evaluate,
    fubini_study_from_spectrum,
)
from grasspack.packing import PackingProblem, solve
from grasspack.verify import (
    bound_blokhuis,
    bound_chordal,
    bound_decaen,
    bound_fubini_study,
    bound_gerzon,
    bound_lemmens_seidel,
    bound_angle_distance,
    polynomial_certificate,
    check_equiangular,
    size_chrss,
)

from _oracles import chordal_trace_form, principal_angles_recursive

GRASSMANNIANS = [(3, 1), (4, 2), (5, 2), (6, 3)]  # (n, k)


def _report(number: int, description: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s < {limit:g}s)")


def test_criterion_1_principal_angle_routes_agree():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    pairs_per_space = 125  # 500 pairs total across the four Grassmannians
    for n, k in GRASSMANNIANS:
        for _ in range(pairs_per_space):
            u = random_subspace(n, k, rng)
            v = random_subspace(n, k, rng)
            spectral = principal_angles(u, v)
            gram = v.rep.T @ u.rep @ u.rep.T @ v.rep
            lam = np.clip(symmetric_eigenvalues(gram), 0.0, 1.0)
            eigen_route = np.arccos(np.sqrt(lam))
            assert np.max(np.abs(spectral - eigen_route)) <= 1e-9
            recursive = principal_angles_recursive(u, v)
            assert np.max(np.abs(spectral - recursive)) <= 1e-6
    _report(1, "spectral, eigenvalue, and recursive angle routes agree", started, 10.0)


def test_criterion_2_complement_duality():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    eps = EPS_ANGLE
    for _ in range(200):
        u = random_subspace(5, 2, rng)
        v = random_subspace(5, 2, rng)
        direct = principal_angles(u, v)
        dual = principal_angles(complement(u), complement(v))
        direct, dual = direct[direct > eps], dual[dual > eps]
        assert direct.size == dual.size
        if direct.size:
            assert np.max(np.abs(direct - dual)) <= 1e-8
    _report(2, "nonzero principal angles survive complements on Gr(2,5)", started, 5.0)


def _check_lift_family(family, alpha, expected_size):
    assert len(family) == expected_size
    members = family.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            spectrum = principal_angles(members[i], members[j])
            for angle in spectrum:
                assert min(abs(angle), abs(angle - alpha)) <= 1e-8
            nonzero = spectrum[spectrum > EPS_ANGLE]
            assert nonzero.size >= 1
            assert abs(nonzero[0] - alpha) <= 1e-8  # theta_F
            assert abs(spectrum[-1] - alpha) <= 1e-8  # theta_k
    assert check_equiangular(family, THETA_F, tol=1e-8).verdict
    assert check_equiangular(family, THETA_K, tol=1e-8).verdict
    assert not check_equiangular(family, THETA_1, tol=1e-8).verdict


def test_criterion_3_lift_families():
    started = time.perf_counter()
    simplex_lift = lift_lines_to_subspaces(simplex_lines(2), 2)
    assert (simplex_lift.k, simplex_lift.n) == (2, 4)
    _check_lift_family(simplex_lift, np.pi / 3, expected_size=9)

    icosa_lift = lift_lines_to_subspaces(icosahedral_lines(), 2)
    assert (icosa_lift.k, icosa_lift.n) == (2, 6)
    _check_lift_family(
        icosa_lift, math.acos(1.0 / math.sqrt(5.0)), expected_size=36
    )
    _report(3, "lift families realize spectra in {0, alpha}", started, 5.0)


def test_criterion_4_polynomial_certificate():
    started = time.perf_counter()
    lift9 = lift_lines_to_subspaces(simplex_lines(2), 2)
    cert = polynomial_certificate(lift9, np.pi / 3, tol=1e-8)
    assert cert.verdict
    assert cert.lam == pytest.approx(0.25, abs=1e-12)
    diag = np.diag(cert.eval_matrix)
    assert np.max(np.abs(diag - 0.5625)) <= 1e-8
    off = cert.eval_matrix[~np.eye(9, dtype=bool)]
    assert np.max(np.abs(off)) <= 1e-8
    assert cert.m == 9 and cert.bound == 55

    simplex = lift_lines_to_subspaces(simplex_lines(2), 1)
    tight = polynomial_certificate(simplex, np.pi / 3, tol=1e-8)
    assert tight.verdict
    assert tight.m == 3 and tight.bound == 3  # met with equality
    _report(4, "certificate: diagonal (1-lambda)^k, zero off-diagonal, m <= bound", started, 1.0)


def test_criterion_5_distance_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    pairs_per_space = 125  # 500 pairs total
    for n, k in GRASSMANNIANS:
        for _ in range(pairs_per_space):
            u = random_subspace(n, k, rng)
            v = random_subspace(n, k, rng)
            spectrum = principal_angles(u, v)
            assert evaluate(CHORDAL, u, v) == pytest.approx(
                chordal_trace_form(u, v), abs=1e-9
            )
            assert evaluate(FUBINI_STUDY, u, v) == pytest.approx(
                fubini_study_from_spectrum(spectrum), abs=1e-9
            )
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        for _ in range(67):  # 201 Cauchy-Binet pairs total
            u = random_subspace(n, k, rng)
            v = random_subspace(n, k, rng)
            inner = float(plucker_embed(u) @ plucker_embed(v))
            assert inner == pytest.approx(determinant(u.rep.T @ v.rep), abs=1e-9)
    _report(5, "chordal/Fubini-Study/Pluecker identities hold", started, 10.0)


def test_criterion_6_bound_formulas_exact():
    started = time.perf_counter()
    assert bound_gerzon(7) == 28
    assert bound_decaen(1) == (5, 8)
    assert bound_blokhuis(4) == 330
    assert bound_angle_distance(2, 4) == 55
    assert bound_chordal(3) == 6 and bound_chordal(5) == 15
    assert bound_fubini_study(2, 4) == 21 and bound_fubini_study(2, 5) == 55
    assert size_chrss(5) == (2, 5, 15) and size_chrss(13) == (6, 13, 91)
    assert bound_lemmens_seidel(2, 4) == 8
    for n in range(2, 101):
        assert bound_angle_distance(2, n) < bound_blokhuis(n)
    _report(6, "bound tables reproduce every formula exactly", started, 1.0)


def test_criterion_7_optimizer_recovers_known_optima():
    started = time.perf_counter()
    three_lines = PackingProblem(
        k=1, n=2, m=3, metric="thetaK", objective="maximin", seed=7
    )
    result_a = solve(three_lines)
    assert result_a.objective_value >= np.pi / 3 - 1e-3

    six_lines = PackingProblem(
        k=1, n=3, m=6, metric="thetaK", objective="maximin", seed=7
    )
    result_b = solve(six_lines)
    assert result_b.objective_value >= math.acos(1.0 / math.sqrt(5.0)) - 5e-3

    # bit-reproducibility: identical serialized families on re-run
    again_a = solve(three_lines)
    again_b = solve(six_lines)
    for first, second in ((result_a, again_a), (result_b, again_b)):
        assert dumps_json(family_to_doc(first.family)) == dumps_json(
            family_to_doc(second.family)
        )
        assert first.objective_value == second.objective_value
        assert first.history == second.history
    _report(7, "annealer recovers the 3-line and 6-line optima, reproducibly", started, 60.0)


def test_criterion_8_sandwich_and_duality(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(2027)
    for _ in range(200):
        u = random_subspace(5, 2, rng)
        v = random_subspace(5, 2, rng)
        lo = evaluate(THETA_F, u, v)
        hi = evaluate(THETA_K, u, v)
        assert lo <= hi + 1e-12
        cu, cv = complement(u), complement(v)
        for metric in (CHORDAL, FUBINI_STUDY, THETA_F, THETA_K):
            assert evaluate(metric, u, v) == pytest.approx(
                evaluate(metric, cu, cv), abs=1e-8
            )

    # verdicts preserved through the cmd_complement CLI path on the lift family
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    src = tmp_path / "lift.json"
    save_family(src, family)
    comp_path = tmp_path / "lift_complement.json"
    assert main(["complement", str(src), "-o", str(comp_path)]) == 0
    for metric_name in ("thetaF", "thetaK", "chordal", "fubini-study"):
        direct_exit = main(["verify", str(src), metric_name])
        dual_exit = main(["verify", str(comp_path), metric_name])
        assert direct_exit == dual_exit
    _report(8, "sandwich bounds and complement duality hold end to end", started, 60.0)
