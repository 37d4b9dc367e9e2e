"""Simulated-annealing search for subspace packings and near-equiangular families.

One annealing move perturbs a single member and re-orthonormalizes; the
maximin objective is smoothed with a soft-min whose sharpness follows the
temperature schedule, while the best-so-far bookkeeping always uses the true
objective.  The step and temperature schedules are the module constants STEP
and TEMPERATURE, not problem fields.

A problem holds nine fields of JSON types: integers for k, n, m, seed,
restarts and max_iters, a number for min_separation and strings for metric
and objective.  `validated_metric`, which `from_dict` and `solve` both run,
rejects every other type, booleans included; `from_dict` converts nothing
but an integer min_separation (to float), and seed defaults to 0.

All restarts run in lockstep as one array program: the members are an
(R, m, n, k) stack and the pair values R rows, so each iteration moves one
member in every restart, for every k.  Rank failures, the separation floor
and the Metropolis test are masks over the restarts.

The loop runs in passes.  A pass scores a window of W consecutive
iterations [t, t + W) for every restart at once, all from the state at t:
one batched re-orthonormalization of the W x R candidates, one batched
call for their pair distances, one soft-min or variance over a
(2, W, R, pairs) value buffer and one Metropolis mask.  Let a be the first
slot in which any restart accepts.  The slots before a reject in every
restart, so they leave the state as it was at t, and slot a was therefore
scored from the state it really follows: everything up to slot a is exactly
what one iteration at a time computes.  Batching adds no arithmetic of its
own: each candidate's QR and pair distances are computed as they would be
alone, and every value row is C-contiguous, so each reduction over it sums
in the same order (the tests compare against a one-move-at-a-time
reference bit for bit).  The pass applies slot a's accepts,
discards the later slots (they were scored from a state that slot a has
changed) and moves on to t + a + 1; a window with no accept moves on to
t + W.  Late in a run almost no move is accepted, so most windows run to
their end (pre-fetching, as in Brockwell 2006).  The window is not a
setting: it starts at 1, becomes 2(a + 1) after an accept in slot a,
doubles after a window without one, never exceeds WINDOW_MAX and never
crosses the end of a MOVE_BLOCK.  Its size changes how much work is done,
never the result.

Restart r draws only from its own `default_rng([seed, r])`: first its m
initial members as one (m, n, k) normal draw, then, MOVE_BLOCK iterations at
a time, the moved member indices, the (n, k) move directions and the
Metropolis uniforms, in that order.  No restart's arithmetic reads another
restart's row, so a restart's result, and its counts of accepted and
rejected moves, are bit-identical however many restarts run beside it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .constructions import SubspaceFamily
from .errors import InvalidProblemError, RankDeficientError, UnknownMetricError
from .grassmann import sign_fix_columns
from .linalg import orthonormalize_stack
from .metrics import Metric, get_metric, pair_distances

OBJECTIVES = ("maximin", "equiangular_variance")

# Types a problem field accepts, keyed by its annotation (a string, under
# `from __future__ import annotations`): the JSON types of a problem file.
# `validated_metric` compares exact types, so true/false (bool subclasses
# int) fail every check.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}

# Geometric schedules as (first iteration, last iteration) values.
STEP = (0.5, 3e-4)
TEMPERATURE = (0.2, 1e-7)

# Moves that bring a pair closer than this are rejected outright: collapsed
# members would violate the family distinctness invariant (and make the
# variance objective trivially zero).
MIN_SEPARATION = 1e-6

# Moves are drawn from each restart's generator this many iterations at a time.
MOVE_BLOCK = 256

# A pass scores at most this many consecutive iterations.  A wider window
# costs less per slot but throws more slots away after an accept: one k = 1
# pass over 4 restarts of 6 members took about 90 us at 1 slot, 220 us at 16,
# 540 us at 64 and 1.6 ms at 256 (2-core Xeon, numpy 2.4, OpenBLAS).
WINDOW_MAX = 16


@dataclass(frozen=True)
class PackingProblem:
    """What to search for and on what budget; the schedules are STEP and TEMPERATURE."""

    k: int
    n: int
    m: int
    metric: str
    objective: str = "maximin"
    seed: int = 0
    restarts: int = 16
    max_iters: int = 20000
    # Pairwise-distance floor enforced during the search.  The variance
    # objective is scale-degenerate (clusters shrinking toward coincidence
    # drive the variance to zero while staying distinct), so equiangularity
    # searches should set this to a meaningful angle scale.
    min_separation: float = MIN_SEPARATION

    def validated_metric(self) -> Metric:
        """Check the field types and problem invariants; returns the resolved Metric."""
        for field in fields(self):
            value = getattr(self, field.name)
            if type(value) not in _JSON_TYPES[field.type]:
                raise InvalidProblemError(
                    f"bad problem field value: {field.name} must be {field.type}, got {value!r}"
                )
        try:
            metric = get_metric(self.metric)
        except UnknownMetricError as exc:
            raise InvalidProblemError(str(exc)) from None
        try:
            finite = math.isfinite(self.min_separation)
        except OverflowError as exc:  # an integer beyond the float range
            raise InvalidProblemError(f"bad problem field value: {exc}") from None
        if not finite:
            raise InvalidProblemError(
                f"min_separation must be finite, got {self.min_separation!r}"
            )
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
    def from_dict(cls, doc) -> "PackingProblem":
        if not isinstance(doc, dict):
            raise InvalidProblemError("packing problem must be a JSON object")
        unknown = sorted(set(doc) - {field.name for field in fields(cls)})
        if unknown:
            raise InvalidProblemError(f"unknown problem fields: {unknown}")
        missing = sorted({"k", "n", "m", "metric"} - set(doc))
        if missing:
            raise InvalidProblemError(f"missing problem fields: {missing}")
        problem = cls(**doc)
        problem.validated_metric()
        return replace(problem, min_separation=float(problem.min_separation))


@dataclass(frozen=True, eq=False)
class PackingResult:
    """Best family over all restarts; `restart_values` and `restart_iterations`
    hold each restart's best objective and the iteration that reached it, and
    the `restart_accepted` / `restart_rejected_*` tuples count each restart's
    moves by outcome (a move failing both checks counts as a rank rejection;
    the rest were turned down by the Metropolis test)."""

    family: SubspaceFamily
    objective_value: float
    best_iteration: int
    history: tuple[tuple[int, float], ...]
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]
    restart_accepted: tuple[int, ...]
    restart_rejected_rank: tuple[int, ...]
    restart_rejected_separation: tuple[int, ...]


def _schedule(start: float, final: float, iters: int, i: np.ndarray) -> np.ndarray:
    """Geometric schedule from `start` (i = 0) to `final` (i = iters - 1)."""
    if iters == 1:
        return np.full(i.shape, final)
    return start * (final / start) ** (i / (iters - 1))


def _anneal(problem: PackingProblem, metric: Metric):
    """Run every restart in lockstep; returns per-restart bests, reps, histories
    and the (3, R) counts of accepted moves and of moves rejected for rank and
    for separation."""
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
    npairs = len(iu)
    pos = np.array([np.flatnonzero((iu == r) | (ju == r)) for r in range(m)])
    partner = np.where(iu[pos] == np.arange(m)[:, None], ju[pos], iu[pos])

    def score(values, beta):
        """(Metropolis score, true objective) per row; the score is maximized.

        `beta` broadcasts against the rows, `values.shape[:-1]`."""
        if maximize:
            # soft-min: sharpens into the min as the temperature drops
            lo = values.min(axis=-1)
            soft = lo - np.log(np.exp((lo[..., None] - values) * beta[..., None]).sum(axis=-1)) / beta
            return soft, lo
        var = values.var(axis=-1)
        return -var, var

    # each restart's pair values; a C-contiguous row per restart, so every
    # reduction over it runs in the same order as over a window's rows
    vals = np.empty((restarts, npairs))
    vals[...] = pair_distances(metric, reps[:, iu], reps[:, ju])
    best_value = score(vals, np.float64(1.0))[1]
    best_reps = reps.copy()
    best_iteration = np.zeros(restarts, dtype=int)
    history = [[(0, float(v))] for v in best_value]
    counts = np.zeros((3, restarts), dtype=int)
    # flat views, so one integer array picks a member or pair in every restart
    flat_reps = reps.reshape(restarts * m, n, k)
    rows = np.arange(restarts)
    slot_pairs = np.arange(WINDOW_MAX)[:, None, None] * (restarts * npairs)
    window = 1

    for start in range(0, iters, MOVE_BLOCK):
        size = min(MOVE_BLOCK, iters - start)
        draws = [(rng.integers(m, size=size), rng.standard_normal((size, n, k)), rng.random(size))
                 for rng in rngs]
        # block arrays lead with the iteration axis, then the restart axis
        moved = np.stack([d[0] for d in draws], axis=1)
        uniform = np.stack([d[2] for d in draws], axis=1)
        i = np.arange(start, start + size)
        betas = 1.0 / _schedule(*TEMPERATURE, iters, i)
        steps = _schedule(*STEP, iters, i)
        moves = np.stack([d[1] for d in draws], axis=1) * steps[:, None, None, None]
        members = moved + rows * m
        partners = partner[moved] + rows[:, None] * m
        pairs = pos[moved] + rows[:, None] * npairs
        # per-iteration outcomes; a pass writes every slot it scores, and the
        # pass that consumes a slot is the last to write it
        accepted = np.zeros((size, restarts), dtype=bool)
        ranked = np.empty((size, restarts), dtype=bool)
        separated = np.empty((size, restarts), dtype=bool)
        t = 0
        while t < size:
            # one pass scores slots [t, t + w) of the block, all from the current
            # state: exact up to and including the first slot any restart accepts
            w = min(window, size - t)
            now = slice(t, t + w)
            beta = betas[now, None]
            current = flat_reps[members[now]]
            # a rank-deficient candidate's Q is finite, so the spectra stay
            # NaN-free; `ranked` rejects it
            cand, ranked[now] = orthonormalize_stack(current + moves[now])
            new_rows = pair_distances(metric, cand[:, :, None], flat_reps[partners[now]])
            separated[now] = new_rows.min(axis=-1) >= separation
            # trial[0] holds each slot's pair values, trial[1] those with its move applied
            trial = np.empty((2, w, restarts, npairs))
            trial[...] = vals
            trial[1].reshape(-1)[pairs[now] + slot_pairs[:w]] = new_rows
            soft, value = score(trial, beta)
            # Metropolis: accept a gain always, a loss delta with probability exp(delta / T)
            accept = ranked[now] & separated[now] & (
                uniform[now] < np.exp(np.minimum(soft[1] - soft[0], 0.0) * beta)
            )
            hit = accept.any(axis=1)
            slot = int(hit.argmax())
            if not hit[slot]:
                t += w
                window = min(2 * window, WINDOW_MAX)
                continue
            t += slot + 1
            window = min(2 * (slot + 1), WINDOW_MAX)
            accept = accept[slot]
            accepted[t - 1] = accept
            np.copyto(vals, trial[1, slot], where=accept[:, None])
            flat_reps[members[t - 1]] = np.where(accept[:, None, None], cand[slot], current[slot])
            improved = accept & (
                value[1, slot] > best_value if maximize else value[1, slot] < best_value
            )
            for r in np.flatnonzero(improved):
                best_value[r] = value[1, slot, r]
                best_iteration[r] = start + t
                best_reps[r] = reps[r]
                history[r].append((start + t, float(value[1, slot, r])))
        counts += [accepted.sum(axis=0), (~ranked).sum(axis=0), (ranked & ~separated).sum(axis=0)]
    return best_value, best_reps, best_iteration, history, counts


def solve(problem: PackingProblem) -> PackingResult:
    """Best family over all restarts; ties break to the lowest restart index."""
    metric = problem.validated_metric()
    values, reps, iterations, histories, counts = _anneal(problem, metric)
    best = int(np.argmax(values) if problem.objective == "maximin" else np.argmin(values))
    family = SubspaceFamily.from_stack(
        sign_fix_columns(reps[best]),
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
        restart_accepted=tuple(int(c) for c in counts[0]),
        restart_rejected_rank=tuple(int(c) for c in counts[1]),
        restart_rejected_separation=tuple(int(c) for c in counts[2]),
    )


def perturb(family: SubspaceFamily, scale: float, seed: int = 0) -> SubspaceFamily:
    """Additive Gaussian perturbation of magnitude `scale`, re-orthonormalized.

    scale = 0 is the identity on spans; a fixed seed gives bit-identical output.
    """
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(f"scale must be finite and >= 0, got {scale!r}")
    rng = np.random.default_rng(seed % (2**63))
    reps, independent = orthonormalize_stack(
        family.reps + scale * rng.standard_normal(family.reps.shape)
    )
    if not independent.all():
        raise RankDeficientError("perturbed members are numerically dependent")
    return SubspaceFamily.from_stack(
        sign_fix_columns(reps),
        provenance=f"perturb(scale={scale:g}) of [{family.provenance}]",
        metadata=dict(family.metadata),
    )
