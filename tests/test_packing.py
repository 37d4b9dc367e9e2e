"""Annealing optimizer: determinism, feasibility, known small optima."""

import dataclasses
import json
import math

import numpy as np
import pytest

from grasspack import packing
from grasspack.constructions import lift_lines_to_subspaces, simplex_lines
from grasspack.errors import InvalidProblemError
from grasspack.family_io import family_to_doc
from grasspack.grassmann import spectra
from grasspack.metrics import evaluate, pair_distances
from grasspack.packing import OBJECTIVES, PackingProblem, PackingResult, perturb, solve
from grasspack.registry import METRICS, get_metric

from _oracles import anneal_reference, chordal, projection_matrix


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
        small_problem(m=1)
    with pytest.raises(InvalidProblemError):
        small_problem(k=3, n=2)
    # Gr(n, n) has one member, so any two coincide
    with pytest.raises(InvalidProblemError, match="need 1 <= k < n"):
        small_problem(k=2, n=2)
    with pytest.raises(InvalidProblemError):
        small_problem(metric="spectral")
    with pytest.raises(InvalidProblemError):
        small_problem(objective="minimax")
    with pytest.raises(InvalidProblemError):
        small_problem(restarts=0)
    with pytest.raises(InvalidProblemError, match="^min_separation must be >= 0$"):
        small_problem(min_separation=-1)
    # theta_1 maximin is degenerate once subspaces must intersect
    with pytest.raises(InvalidProblemError):
        PackingProblem(k=2, n=3, m=3, metric="theta1")
    # but fine when 2k <= n
    PackingProblem(k=1, n=3, m=3, metric="theta1")


def test_problem_checks_itself_when_made():
    assert not hasattr(PackingProblem, "validated_metric")
    with pytest.raises(InvalidProblemError, match="need m >= 2"):
        dataclasses.replace(small_problem(), m=1)
    problem = PackingProblem(k=1, n=2, m=3, metric="thetaK", min_separation=1)
    assert type(problem.min_separation) is float and problem.min_separation == 1.0
    assert type(dataclasses.replace(problem, min_separation=0).min_separation) is float


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["min_separation"])
def test_non_finite_float_fields_rejected(field, bad):
    with pytest.raises(InvalidProblemError, match=f"{field} must be finite"):
        small_problem(**{field: bad})
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
    with pytest.raises(InvalidProblemError, match="^packing problem must be a JSON object$"):
        PackingProblem.from_dict([])


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 2.0),
        ("max_iters", None),
        ("seed", False),
        ("min_separation", True),
        ("metric", 1),
        ("objective", ["maximin"]),
    ],
    ids=["n-float", "max_iters-null", "seed-bool", "min_separation-bool", "metric-int", "objective-list"],
)
def test_from_dict_requires_json_types(field, value):
    # problem files are type-checked, never coerced: booleans fail every check
    # (test_cli.py::test_pack_field_type_exit_2 runs the other cases end to end)
    doc = dict({"k": 1, "n": 2, "m": 3, "metric": "thetaK"}, **{field: value})
    with pytest.raises(InvalidProblemError, match=f"bad problem field value: {field} must be"):
        PackingProblem.from_dict(doc)


@pytest.mark.parametrize(
    "field, value", [("m", 3.5), ("k", True), ("restarts", "2")], ids=["m-float", "k-bool", "restarts-str"]
)
def test_python_problems_require_json_types(field, value):
    # problems built in Python skip from_dict but get the same type check when made
    with pytest.raises(InvalidProblemError, match=f"bad problem field value: {field} must be"):
        small_problem(**{"restarts": 1, "max_iters": 50, field: value})


def test_from_dict_accepts_json_types():
    doc = {"k": 1, "n": 2, "m": 3, "metric": "thetaK", "min_separation": 0}
    problem = PackingProblem.from_dict(doc)
    assert problem.seed == 0
    assert type(problem.min_separation) is float
    assert PackingProblem.from_dict(dict(doc, min_separation=0.25)).min_separation == 0.25
    with pytest.raises(InvalidProblemError, match="bad problem field value"):
        PackingProblem.from_dict(dict(doc, min_separation=10**400))


def test_solve_three_lines_in_plane():
    result = solve(small_problem())
    assert result.objective_value >= np.pi / 3 - 1e-3
    # recomputation from the returned family matches the reported value
    metric = get_metric("thetaK")
    reps = result.family.reps
    iu, ju = np.triu_indices(len(reps), 1)
    recomputed = float(np.min(pair_distances(metric, reps[iu], reps[ju])))
    assert recomputed == pytest.approx(result.objective_value, abs=1e-9)


@pytest.mark.parametrize("metric", [m.cli_name for m in METRICS.values()])
@pytest.mark.parametrize("k, n", [(1, 3), (2, 4)])
def test_maximin_objective_is_the_family_minimum_distance(k, n, metric):
    # the result's objective_value, recomputed from its family alone; not bit
    # for bit, since the sign fix and the argument order may move the last bits
    result = solve(PackingProblem(k=k, n=n, m=4, metric=metric, seed=1, restarts=2, max_iters=300))
    reps = result.family.reps
    iu, ju = np.triu_indices(len(reps), 1)
    recomputed = float(np.min(pair_distances(get_metric(metric), reps[iu], reps[ju])))
    assert abs(recomputed - result.objective_value) <= 1e-12


def test_solve_orthogonal_planes_chordal():
    problem = PackingProblem(
        k=2, n=4, m=2, metric="chordal", seed=3, restarts=4, max_iters=8000
    )
    result = solve(problem)
    assert result.objective_value == pytest.approx(math.sqrt(2.0), abs=1e-6)
    # the annealer's residual-norm chordal values agree with the angle route
    reps = result.family.reps
    iu, ju = np.triu_indices(len(reps), 1)
    recomputed = chordal(spectra(reps[iu], reps[ju])).min()
    assert recomputed == pytest.approx(result.objective_value, abs=1e-12)


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
    # alone or beside 1 or 4 others must not change a bit of its result
    one = solve(small_problem(restarts=1, max_iters=1200, **overrides))
    two = solve(small_problem(restarts=2, max_iters=1200, **overrides))
    five = solve(small_problem(restarts=5, max_iters=1200, **overrides))
    assert len(five.restart_values) == len(five.restart_iterations) == 5
    assert two.restart_values == five.restart_values[:2]
    assert two.restart_iterations == five.restart_iterations[:2]
    assert two.objective_value in two.restart_values
    # the windows a pass scores depend on every restart's accepts; the
    # acceptance counts must not
    for fewer in (one, two):
        r = len(fewer.restart_values)
        assert fewer.restart_values == five.restart_values[:r]
        assert fewer.restart_accepted == five.restart_accepted[:r]
        assert fewer.restart_rejected_rank == five.restart_rejected_rank[:r]
        assert fewer.restart_rejected_separation == five.restart_rejected_separation[:r]
    # a move counts at most once, as accepted, rejected for rank or rejected
    # for separation (a move that loses the Metropolis draw counts nowhere)
    for counts in zip(
        five.restart_accepted, five.restart_rejected_rank, five.restart_rejected_separation
    ):
        assert sum(counts) <= 1200


def _outcome(result):
    """Everything a solve reports, compared bit for bit (json keeps -0.0 apart)."""
    return (
        json.dumps(family_to_doc(result.family)),
        result.objective_value,
        result.best_iteration,
        result.history,
        result.restart_values,
        result.restart_iterations,
        result.restart_accepted,
        result.restart_rejected_rank,
        result.restart_rejected_separation,
    )


def _solve_with_reference(problem, monkeypatch):
    """solve(problem) twice: with the windowed annealer and with the one-move reference."""
    result = solve(problem)
    monkeypatch.setattr(packing, "_anneal", anneal_reference)
    return result, solve(problem)


def _assert_counts_fit(result, max_iters):
    for counts in zip(
        result.restart_accepted, result.restart_rejected_rank, result.restart_rejected_separation
    ):
        assert sum(counts) <= max_iters


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("metric", [metric.cli_name for metric in METRICS.values()])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_matches_one_move_reference(k, metric, objective, monkeypatch):
    # a pass scores a window of moves from one state; the result must be the
    # one-move-at-a-time annealer's, bit for bit, counts included
    variance = objective == "equiangular_variance"
    problem = PackingProblem(
        k=k, n=2 * k + 1, m=6, metric=metric, objective=objective, seed=20 + k,
        restarts=2, max_iters=200, min_separation=0.2 if variance else packing.MIN_SEPARATION,
    )
    result, reference = _solve_with_reference(problem, monkeypatch)
    assert _outcome(result) == _outcome(reference)
    _assert_counts_fit(result, problem.max_iters)


@pytest.mark.parametrize("restarts", [1, 5])
@pytest.mark.parametrize("max_iters", [1, 255, 256, 257, 700])
def test_solve_matches_reference_across_move_blocks(max_iters, restarts, monkeypatch):
    # windows never cross a MOVE_BLOCK boundary, so budgets around it are the edge
    problem = small_problem(n=3, m=5, seed=4, restarts=restarts, max_iters=max_iters)
    result, reference = _solve_with_reference(problem, monkeypatch)
    assert _outcome(result) == _outcome(reference)
    _assert_counts_fit(result, max_iters)
    assert sum(result.restart_accepted) > 0


def test_unsatisfiable_separation_rejects_every_move(monkeypatch):
    # three lines in R^2 are at most pi/3 apart, so no move clears 1.5, and
    # chordal distances of planes stay <= sqrt 2; every window then runs to
    # its end without an accept
    for overrides in (
        dict(min_separation=1.5),
        dict(k=2, n=4, metric="chordal", objective="equiangular_variance", min_separation=2.0),
    ):
        problem = small_problem(restarts=2, max_iters=500, **overrides)
        result = solve(problem)
        assert result.best_iteration == 0
        assert len(result.history) == 1
        assert result.restart_iterations == (0, 0)
        assert result.restart_accepted == result.restart_rejected_rank == (0, 0)
        assert result.restart_rejected_separation == (500, 500)
        with monkeypatch.context() as patch:
            patch.setattr(packing, "_anneal", anneal_reference)
            assert _outcome(solve(problem)) == _outcome(result)


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
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale must be finite and >= 0"):
            perturb(family, bad)


def test_result_type_shape():
    result = solve(small_problem(restarts=1, max_iters=300))
    assert isinstance(result, PackingResult)
    assert len(result.family) == 3
    assert result.history[0][0] == 0
