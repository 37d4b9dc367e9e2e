"""Simulated-annealing search for subspace packings and near-equiangular families.

One annealing move perturbs a single member and re-orthonormalizes; the
maximin objective is smoothed with a soft-min whose sharpness follows the
temperature schedule, while the best-so-far bookkeeping always uses the true
objective.  Per-restart RNG streams derive from (seed, restart index), so the
result does not depend on how restarts are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .constructions import SubspaceFamily
from .errors import InvalidProblemError, RankDeficientError, UnknownMetricError
from .grassmann import Subspace, sign_fix_columns
from .linalg import orthonormalize
from .metrics import Metric, get_metric, pair_distances

OBJECTIVES = ("maximin", "equiangular_variance")
_FLOAT_FIELDS = ("step_init", "step_final", "temp_init", "temp_final", "min_separation")

# Moves that bring a pair closer than this are rejected outright: collapsed
# members would violate the family distinctness invariant (and make the
# variance objective trivially zero).
MIN_SEPARATION = 1e-6


@dataclass(frozen=True)
class PackingProblem:
    """Search configuration; step/temperature schedules are geometric."""

    k: int
    n: int
    m: int
    metric: str
    objective: str = "maximin"
    seed: int = 0
    restarts: int = 16
    max_iters: int = 20000
    step_init: float = 0.5
    step_final: float = 3e-4
    temp_init: float = 0.2
    temp_final: float = 1e-7
    # Pairwise-distance floor enforced during the search.  The variance
    # objective is scale-degenerate (clusters shrinking toward coincidence
    # drive the variance to zero while staying distinct), so equiangularity
    # searches should set this to a meaningful angle scale.
    min_separation: float = MIN_SEPARATION

    def validated_metric(self) -> Metric:
        """Check the problem invariants; returns the resolved Metric."""
        try:
            metric = get_metric(self.metric)
        except UnknownMetricError as exc:
            raise InvalidProblemError(str(exc)) from None
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidProblemError(f"{name} must be finite, got {value!r}")
        if self.m < 2:
            raise InvalidProblemError(f"need m >= 2 members, got {self.m}")
        if not 1 <= self.k <= self.n:
            raise InvalidProblemError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.objective not in OBJECTIVES:
            raise InvalidProblemError(
                f"unknown objective {self.objective!r}; known: {OBJECTIVES}"
            )
        if self.restarts < 1 or self.max_iters < 1:
            raise InvalidProblemError("restarts and max_iters must be positive")
        if not 0.0 < self.step_final <= self.step_init:
            raise InvalidProblemError("need 0 < step_final <= step_init")
        if not 0.0 < self.temp_final <= self.temp_init:
            raise InvalidProblemError("need 0 < temp_final <= temp_init")
        if self.min_separation < 0.0:
            raise InvalidProblemError("min_separation must be >= 0")
        if (
            metric.id == "theta_1"
            and self.objective == "maximin"
            and 2 * self.k > self.n
        ):
            # theta_1 is identically zero once the subspaces must intersect
            raise InvalidProblemError(
                f"theta_1 maximin is degenerate for 2k > n (k={self.k}, n={self.n})"
            )
        return metric

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc, default_seed: int = 0) -> "PackingProblem":
        if not isinstance(doc, dict):
            raise InvalidProblemError("packing problem must be a JSON object")
        field_names = tuple(cls.__dataclass_fields__)
        unknown = sorted(set(doc) - set(field_names))
        if unknown:
            raise InvalidProblemError(f"unknown problem fields: {unknown}")
        missing = sorted({"k", "n", "m", "metric"} - set(doc))
        if missing:
            raise InvalidProblemError(f"missing problem fields: {missing}")
        kwargs: dict = {"seed": default_seed}
        try:
            for name in field_names:
                if name not in doc:
                    continue
                value = doc[name]
                if name in ("k", "n", "m", "seed", "restarts", "max_iters"):
                    kwargs[name] = int(value)
                elif name in ("metric", "objective"):
                    kwargs[name] = str(value)
                else:
                    kwargs[name] = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidProblemError(f"bad problem field value: {exc}") from None
        problem = cls(**kwargs)
        problem.validated_metric()
        return problem


@dataclass(frozen=True, eq=False)
class PackingResult:
    family: SubspaceFamily
    objective_value: float
    best_iteration: int
    history: tuple[tuple[int, float], ...]


def _line_distance(metric_id: str):
    """k = 1 fast path: distance as a vectorized function of |<u, v>|."""
    if metric_id == "chordal":
        return lambda c: np.sqrt(np.maximum(1.0 - c * c, 0.0))
    # for lines every other registered metric reduces to the angle itself
    return lambda c: np.arccos(np.minimum(c, 1.0))


def _run_restart(problem: PackingProblem, metric: Metric, restart: int):
    k, n, m = problem.k, problem.n, problem.m
    iters = problem.max_iters
    maximize = problem.objective == "maximin"
    separation = max(problem.min_separation, MIN_SEPARATION)
    rng = np.random.default_rng([problem.seed % (2**63), restart])

    flat = np.empty((m, n * k))
    for r in range(m):
        flat[r] = orthonormalize(rng.standard_normal((n, k))).ravel()

    iu, ju = np.triu_indices(m, 1)
    pos = [np.flatnonzero((iu == r) | (ju == r)) for r in range(m)]
    partner = [np.where(iu[p] == r, ju[p], iu[p]) for r, p in enumerate(pos)]

    if k == 1:
        line_value = _line_distance(metric.id)

        def row_values(cand_flat, partners):
            return line_value(np.abs(flat[partners] @ cand_flat))
    else:
        def row_values(cand_flat, partners):
            return pair_distances(
                metric, cand_flat.reshape(n, k), flat[partners].reshape(-1, n, k)
            )

    def true_objective(values):
        return float(values.min()) if maximize else float(values.var())

    def accept_score(values, beta):
        # maximized in both modes; soft-min sharpens into min as temp drops
        if maximize:
            lo = float(values.min())
            return lo - math.log(float(np.exp(-beta * (values - lo)).sum())) / beta
        return -float(values.var())

    def schedule(start, final, i):
        if iters == 1:
            return final
        return start * (final / start) ** (i / (iters - 1))

    # one row of pairs per member, in the (iu, ju) order of np.triu_indices
    vals = np.concatenate([row_values(flat[i], np.arange(i + 1, m)) for i in range(m - 1)])

    best_value = true_objective(vals)
    best_flat = flat.copy()
    best_iteration = 0
    history = [(0, best_value)]

    for it in range(1, iters + 1):
        temp = schedule(problem.temp_init, problem.temp_final, it - 1)
        step = schedule(problem.step_init, problem.step_final, it - 1)
        beta = 1.0 / temp
        idx = int(rng.integers(m))
        noise = rng.standard_normal((n, k))
        if k == 1:
            cand = flat[idx] + step * noise.ravel()
            norm = math.sqrt(float(cand @ cand))
            if norm == 0.0:
                continue
            cand = cand / norm
        else:
            try:
                cand = orthonormalize(flat[idx].reshape(n, k) + step * noise).ravel()
            except RankDeficientError:
                continue
        new_row = row_values(cand, partner[idx])
        if float(new_row.min()) < separation:
            continue
        new_vals = vals.copy()
        new_vals[pos[idx]] = new_row
        delta = accept_score(new_vals, beta) - accept_score(vals, beta)
        if delta < 0.0 and rng.random() >= math.exp(delta / temp):
            continue
        vals = new_vals
        flat[idx] = cand
        current = true_objective(vals)
        improved = current > best_value if maximize else current < best_value
        if improved:
            best_value = current
            best_iteration = it
            best_flat = flat.copy()
            history.append((it, current))
    return best_value, best_flat, best_iteration, history


def solve(problem: PackingProblem) -> PackingResult:
    """Best family over all restarts; ties break to the lowest restart index."""
    metric = problem.validated_metric()
    maximize = problem.objective == "maximin"
    best = None
    for restart in range(problem.restarts):
        run = _run_restart(problem, metric, restart)
        if best is None or (run[0] > best[0] if maximize else run[0] < best[0]):
            best = run
    value, flat, iteration, history = best
    members = tuple(
        Subspace(sign_fix_columns(flat[r].reshape(problem.n, problem.k)))
        for r in range(problem.m)
    )
    family = SubspaceFamily(
        problem.k,
        problem.n,
        members,
        provenance=f"annealed {problem.objective} packing under {metric.id}",
        metadata={
            "metric": metric.id,
            "objective": problem.objective,
            "seed": problem.seed,
        },
    )
    return PackingResult(
        family=family,
        objective_value=float(value),
        best_iteration=int(iteration),
        history=tuple((int(i), float(v)) for i, v in history),
    )


def perturb(family: SubspaceFamily, scale: float, seed: int = 0) -> SubspaceFamily:
    """Additive Gaussian perturbation of magnitude `scale`, re-orthonormalized.

    scale = 0 is the identity on spans; a fixed seed gives bit-identical output.
    """
    if scale < 0.0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    rng = np.random.default_rng(seed % (2**63))
    members = tuple(
        Subspace(
            sign_fix_columns(
                orthonormalize(
                    member.rep + scale * rng.standard_normal((family.n, family.k))
                )
            )
        )
        for member in family.members
    )
    return SubspaceFamily(
        family.k,
        family.n,
        members,
        provenance=f"perturb(scale={scale:g}) of [{family.provenance}]",
        metadata=dict(family.metadata),
    )
