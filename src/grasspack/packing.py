"""Simulated-annealing search for subspace packings and near-equiangular families.

One annealing move perturbs a single member and re-orthonormalizes; the
maximin objective is smoothed with a soft-min whose sharpness follows the
temperature schedule, while the best-so-far bookkeeping always uses the true
objective.

All restarts run in lockstep as one array program: the members are an
(R, m, n, k) stack and the pair values R rows, so each iteration moves one
member in every restart with one batched re-orthonormalization and one
batched row of pair distances, for every k.  Rank failures, the separation
floor and the Metropolis test are masks over the restarts.

Restart r draws only from its own `default_rng([seed, r])`: first its m
initial members as one (m, n, k) normal draw, then, MOVE_BLOCK iterations at
a time, the moved member indices, the (n, k) move directions and the
Metropolis uniforms, in that order.  No restart's arithmetic reads another
restart's row, so a restart's result is bit-identical however many restarts
run beside it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .constructions import SubspaceFamily
from .errors import InvalidProblemError, RankDeficientError, UnknownMetricError
from .grassmann import Subspace, sign_fix_columns
from .linalg import orthonormalize, orthonormalize_stack
from .metrics import Metric, get_metric, pair_distances

OBJECTIVES = ("maximin", "equiangular_variance")
_FLOAT_FIELDS = ("step_init", "step_final", "temp_init", "temp_final", "min_separation")

# Moves that bring a pair closer than this are rejected outright: collapsed
# members would violate the family distinctness invariant (and make the
# variance objective trivially zero).
MIN_SEPARATION = 1e-6

# Moves are drawn from each restart's generator this many iterations at a time.
MOVE_BLOCK = 256


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
    """Best family over all restarts; `restart_values` and `restart_iterations`
    hold each restart's best objective and the iteration that reached it."""

    family: SubspaceFamily
    objective_value: float
    best_iteration: int
    history: tuple[tuple[int, float], ...]
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]


def _schedule(start: float, final: float, iters: int, i: np.ndarray) -> np.ndarray:
    """Geometric schedule from `start` (i = 0) to `final` (i = iters - 1)."""
    if iters == 1:
        return np.full(i.shape, final)
    return start * (final / start) ** (i / (iters - 1))


def _anneal(problem: PackingProblem, metric: Metric):
    """Run every restart in lockstep; returns per-restart bests, reps and histories."""
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

    # pairs in np.triu_indices order; member r sits in pairs pos[r] opposite partner[r]
    iu, ju = np.triu_indices(m, 1)
    pos = np.array([np.flatnonzero((iu == r) | (ju == r)) for r in range(m)])
    partner = np.where(iu[pos] == np.arange(m)[:, None], ju[pos], iu[pos])

    def score(values, beta):
        """(Metropolis score, true objective) per row; the score is maximized."""
        if maximize:
            # soft-min: sharpens into the min as the temperature drops
            lo = values.min(axis=-1)
            soft = lo - np.log(np.exp((lo[..., None] - values) * beta).sum(axis=-1)) / beta
            return soft, lo
        var = values.var(axis=-1)
        return -var, var

    # vals[0] holds each restart's pair values, vals[1] those with the move applied
    vals = np.empty((2, restarts, len(iu)))
    vals[0] = pair_distances(metric, reps[:, iu], reps[:, ju])
    best_value = score(vals[0], 1.0)[1]
    best_reps = reps.copy()
    best_iteration = np.zeros(restarts, dtype=int)
    history = [[(0, float(v))] for v in best_value]
    # flat views, so one integer array picks a member or pair in every restart
    flat_reps = reps.reshape(restarts * m, n, k)
    flat_moved = vals[1].reshape(-1)
    rows = np.arange(restarts)

    for start in range(0, iters, MOVE_BLOCK):
        size = min(MOVE_BLOCK, iters - start)
        draws = [(rng.integers(m, size=size), rng.standard_normal((size, n, k)), rng.random(size))
                 for rng in rngs]
        # block arrays lead with the iteration axis, then the restart axis
        moved = np.stack([d[0] for d in draws], axis=1)
        uniform = np.stack([d[2] for d in draws], axis=1)
        i = np.arange(start, start + size)
        betas = 1.0 / _schedule(problem.temp_init, problem.temp_final, iters, i)
        steps = _schedule(problem.step_init, problem.step_final, iters, i)
        moves = np.stack([d[1] for d in draws], axis=1) * steps[:, None, None, None]
        members = moved + rows * m
        partners = partner[moved] + rows[:, None] * m
        pairs = pos[moved] + rows[:, None] * len(iu)
        for it, member, partner_row, pair, move, u, beta in zip(
            i + 1, members, partners, pairs, moves, uniform, betas
        ):
            current = flat_reps[member]
            # a rank-deficient candidate's Q is finite, so the spectra stay
            # NaN-free; `ok` rejects it
            cand, ok = orthonormalize_stack(current + move)
            new_row = pair_distances(metric, cand[:, None], flat_reps[partner_row])
            ok &= new_row.min(axis=-1) >= separation
            vals[1] = vals[0]
            flat_moved[pair] = new_row
            soft, value = score(vals, beta)
            # Metropolis: accept a gain always, a loss delta with probability exp(delta / T)
            accept = ok & (u < np.exp(np.minimum(soft[1] - soft[0], 0.0) * beta))
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
    return best_value, best_reps, best_iteration, history


def solve(problem: PackingProblem) -> PackingResult:
    """Best family over all restarts; ties break to the lowest restart index."""
    metric = problem.validated_metric()
    values, reps, iterations, histories = _anneal(problem, metric)
    best = int(np.argmax(values) if problem.objective == "maximin" else np.argmin(values))
    members = tuple(Subspace(sign_fix_columns(rep)) for rep in reps[best])
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
        objective_value=float(values[best]),
        best_iteration=int(iterations[best]),
        history=tuple(histories[best]),
        restart_values=tuple(float(v) for v in values),
        restart_iterations=tuple(int(i) for i in iterations),
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
