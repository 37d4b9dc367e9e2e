"""Annealing optimizer: determinism, feasibility, known small optima."""

import math

import numpy as np
import pytest

from grasspack.constructions import lift_lines_to_subspaces, simplex_lines
from grasspack.errors import InvalidProblemError
from grasspack.grassmann import projection_matrix
from grasspack.metrics import evaluate, get_metric
from grasspack.packing import PackingProblem, PackingResult, perturb, solve
from grasspack.verify import pairwise_distances


def small_problem(**overrides):
    base = dict(
        k=1,
        n=2,
        m=3,
        metric="thetaK",
        objective="maximin",
        seed=11,
        restarts=4,
        max_iters=4000,
    )
    base.update(overrides)
    return PackingProblem(**base)


def test_invalid_problems_rejected():
    with pytest.raises(InvalidProblemError):
        small_problem(m=1).validated_metric()
    with pytest.raises(InvalidProblemError):
        small_problem(k=3, n=2).validated_metric()
    with pytest.raises(InvalidProblemError):
        small_problem(metric="spectral").validated_metric()
    with pytest.raises(InvalidProblemError):
        small_problem(objective="minimax").validated_metric()
    with pytest.raises(InvalidProblemError):
        small_problem(restarts=0).validated_metric()
    # theta_1 maximin is degenerate once subspaces must intersect
    with pytest.raises(InvalidProblemError):
        PackingProblem(k=2, n=3, m=3, metric="theta1").validated_metric()
    # but fine when 2k <= n
    PackingProblem(k=1, n=3, m=3, metric="theta1").validated_metric()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "field", ["step_init", "step_final", "temp_init", "temp_final", "min_separation"]
)
def test_non_finite_float_fields_rejected(field, bad):
    with pytest.raises(InvalidProblemError, match=f"{field} must be finite"):
        small_problem(**{field: bad}).validated_metric()
    doc = dict(small_problem().to_dict(), **{field: bad})
    with pytest.raises(InvalidProblemError, match=f"{field} must be finite"):
        PackingProblem.from_dict(doc)


def test_from_dict_round_trip_and_validation():
    problem = small_problem()
    again = PackingProblem.from_dict(problem.to_dict())
    assert again == problem
    with pytest.raises(InvalidProblemError):
        PackingProblem.from_dict({"k": 1, "n": 2, "m": 3})  # metric missing
    with pytest.raises(InvalidProblemError):
        PackingProblem.from_dict(
            {"k": 1, "n": 2, "m": 3, "metric": "thetaK", "bogus": 1}
        )
    with pytest.raises(InvalidProblemError, match="bad problem field value"):
        PackingProblem.from_dict({"k": 1, "n": 2, "m": 3, "metric": "thetaK", "restarts": 1e400})


def test_from_dict_default_seed():
    doc = {"k": 1, "n": 2, "m": 3, "metric": "thetaK"}
    assert PackingProblem.from_dict(doc, default_seed=99).seed == 99
    assert PackingProblem.from_dict(dict(doc, seed=5), default_seed=99).seed == 5


def test_solve_three_lines_in_plane():
    result = solve(small_problem())
    assert result.objective_value >= np.pi / 3 - 1e-3
    # recomputation from the returned family matches the reported value
    metric = get_metric("thetaK")
    recomputed = float(np.min(pairwise_distances(result.family, metric)))
    assert recomputed == pytest.approx(result.objective_value, abs=1e-9)


def test_solve_orthogonal_planes_chordal():
    problem = PackingProblem(
        k=2, n=4, m=2, metric="chordal", seed=3, restarts=4, max_iters=8000
    )
    result = solve(problem)
    assert result.objective_value == pytest.approx(math.sqrt(2.0), abs=1e-6)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n=3, m=5),
        dict(k=2, n=4, m=3, metric="chordal"),
        dict(objective="equiangular_variance", min_separation=0.3, m=4),
    ],
    ids=["thetaK-lines", "chordal-planes", "variance"],
)
def test_restart_results_do_not_depend_on_restart_count(overrides):
    # restart r draws only from its own (seed, r) stream, so running it
    # beside 1 or 4 others must not change a bit of its result
    two = solve(small_problem(restarts=2, max_iters=1200, **overrides))
    five = solve(small_problem(restarts=5, max_iters=1200, **overrides))
    assert len(five.restart_values) == len(five.restart_iterations) == 5
    assert two.restart_values == five.restart_values[:2]
    assert two.restart_iterations == five.restart_iterations[:2]
    assert two.objective_value in two.restart_values


def test_unsatisfiable_separation_rejects_every_move():
    # three lines in R^2 are at most pi/3 apart, so no move clears 1.5
    result = solve(small_problem(min_separation=1.5, restarts=2, max_iters=500))
    assert result.best_iteration == 0
    assert len(result.history) == 1
    assert result.restart_iterations == (0, 0)


def test_solve_reproducible():
    problem = small_problem(restarts=2, max_iters=1500)
    a = solve(problem)
    b = solve(problem)
    assert a.objective_value == b.objective_value
    assert a.best_iteration == b.best_iteration
    assert a.history == b.history
    for ma, mb in zip(a.family.members, b.family.members):
        assert np.array_equal(ma.rep, mb.rep)


def test_solve_seed_changes_result():
    a = solve(small_problem(restarts=1, max_iters=500))
    b = solve(small_problem(restarts=1, max_iters=500, seed=12))
    assert not all(
        np.array_equal(ma.rep, mb.rep)
        for ma, mb in zip(a.family.members, b.family.members)
    )


def test_history_is_monotone():
    result = solve(small_problem(restarts=2, max_iters=2000))
    values = [value for _, value in result.history]
    assert all(b > a for a, b in zip(values, values[1:]))
    iterations = [iteration for iteration, _ in result.history]
    assert iterations == sorted(iterations)
    assert result.best_iteration == iterations[-1]

    variance_result = solve(
        small_problem(
            objective="equiangular_variance",
            min_separation=0.3,
            restarts=2,
            max_iters=2000,
        )
    )
    var_values = [value for _, value in variance_result.history]
    assert all(b < a for a, b in zip(var_values, var_values[1:]))


def test_solution_members_are_orthonormal():
    result = solve(small_problem(restarts=1, max_iters=500))
    for member in result.family.members:
        residual = member.rep.T @ member.rep - np.eye(member.k)
        assert np.max(np.abs(residual)) <= 1e-10


def test_variance_floor_beyond_gerzon_bound():
    # N(2) = 3: a fourth line in the plane cannot be made equiangular, so the
    # residual variance stays well above threshold at any meaningful scale
    problem = PackingProblem(
        k=1,
        n=2,
        m=4,
        metric="thetaK",
        objective="equiangular_variance",
        seed=5,
        restarts=6,
        max_iters=6000,
        min_separation=0.3,
    )
    result = solve(problem)
    assert result.objective_value > 1e-4


def test_variance_reaches_zero_at_gerzon_bound():
    problem = PackingProblem(
        k=1,
        n=2,
        m=3,
        metric="thetaK",
        objective="equiangular_variance",
        seed=5,
        restarts=4,
        max_iters=6000,
        min_separation=0.3,
    )
    result = solve(problem)
    assert result.objective_value < 1e-8


def test_perturb_zero_scale_preserves_spans():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    same = perturb(family, 0.0, seed=1)
    for before, after in zip(family.members, same.members):
        diff = projection_matrix(before) - projection_matrix(after)
        assert np.max(np.abs(diff)) <= 1e-12


def test_perturb_tiny_scale_moves_distances_continuously():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    moved = perturb(family, 1e-9, seed=2)
    metric = get_metric("chordal")
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            before = evaluate(metric, family[i], family[j])
            after = evaluate(metric, moved[i], moved[j])
            assert abs(before - after) <= 1e-6


def test_perturb_deterministic():
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    a = perturb(family, 0.05, seed=9)
    b = perturb(family, 0.05, seed=9)
    for ma, mb in zip(a.members, b.members):
        assert np.array_equal(ma.rep, mb.rep)
    c = perturb(family, 0.05, seed=10)
    assert not all(
        np.array_equal(ma.rep, mc.rep) for ma, mc in zip(a.members, c.members)
    )


def test_perturb_rejects_negative_scale():
    family = lift_lines_to_subspaces(simplex_lines(2), 1)
    with pytest.raises(ValueError):
        perturb(family, -0.1)


def test_result_type_shape():
    result = solve(small_problem(restarts=1, max_iters=300))
    assert isinstance(result, PackingResult)
    assert len(result.family) == 3
    assert result.history[0][0] == 0
