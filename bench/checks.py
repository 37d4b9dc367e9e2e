"""Output checks for the benchmark, computed apart from grasspack.

Every expected value here comes from a closed form or from a direct numpy
computation on the files the CLI wrote; nothing imports grasspack and nothing
compares against a stored copy of an earlier output.  Each checker returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _expect_exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _close(name: str, got, want: float, tol: float) -> str | None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return f"{name} missing or not a number: {got!r}"
    if not abs(got - want) <= tol:
        return f"{name} {got!r}, expected {want!r} within {tol:g}"
    return None


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


def members(doc: dict) -> np.ndarray:
    """FamilyFile members as an (m, n, k) array."""
    n, k = doc["n"], doc["k"]
    return np.asarray(doc["members"], dtype=float).reshape(len(doc["members"]), n, k)


def lift_fubini_study(lines: int, k: int, cos: float) -> tuple[int, float, float]:
    """(pairs, common value, max deviation) of a Fubini-Study scan of a lift.

    Two lift members whose line tuples differ in d places have a diagonal
    cross-Gram with d entries of modulus `cos` and k - d ones, so
    |det| = cos^d and the distance is arccos(cos^d).  The number of ordered
    tuple pairs at Hamming distance d is lines^k * C(k, d) * (lines - 1)^d.
    """
    counts = {d: lines**k * math.comb(k, d) * (lines - 1) ** d // 2 for d in range(1, k + 1)}
    values = {d: math.acos(cos**d) for d in counts}
    pairs = sum(counts.values())
    common = math.fsum(counts[d] * values[d] for d in counts) / pairs
    return pairs, common, max(abs(v - common) for v in values.values())


def check_verify(code: int, doc: dict, pairs: int, common: float, tol: float = 1e-12) -> str | None:
    """An equiangular verdict: exit 0, the pair count and the common value."""
    return _first(
        _expect_exit(code, 0),
        None if doc.get("verdict") is True else f"verdict {doc.get('verdict')!r}",
        None if doc.get("pair_count") == pairs else f"pair_count {doc.get('pair_count')!r}, expected {pairs}",
        _close("common_value", doc.get("common_value"), common, tol),
    )


def check_verify_not_equiangular(
    code: int, doc: dict, pairs: int, common: float, deviation: float, tol: float = 1e-12
) -> str | None:
    """A non-equiangular verdict whose summary matches the closed form."""
    return _first(
        _expect_exit(code, 1),
        None if doc.get("verdict") is False else f"verdict {doc.get('verdict')!r}",
        None if doc.get("pair_count") == pairs else f"pair_count {doc.get('pair_count')!r}, expected {pairs}",
        _close("common_value", doc.get("common_value"), common, tol),
        _close("max_deviation", doc.get("max_deviation"), deviation, tol),
    )


def check_certificate(code: int, doc: dict, m: int, k: int, n: int, cos: float) -> str | None:
    """Certified, with bound C(C(n+1,2)+k-1, k) and diagonal (1 - cos^2)^k."""
    lam = cos * cos
    return _first(
        _expect_exit(code, 0),
        None if doc.get("verdict") is True else f"verdict {doc.get('verdict')!r}",
        None if doc.get("m") == m else f"m {doc.get('m')!r}, expected {m}",
        _close("lambda", doc.get("lambda"), lam, 1e-15),
        _close("diagonal_target", doc.get("diagonal_target"), (1.0 - lam) ** k, 1e-12),
        None
        if doc.get("bound") == math.comb(math.comb(n + 1, 2) + k - 1, k)
        else f"bound {doc.get('bound')!r}, expected {math.comb(math.comb(n + 1, 2) + k - 1, k)}",
    )


def check_complements(code: int, comp_doc: dict, source_doc: dict, tol: float = 1e-10) -> str | None:
    """Member i is an orthonormal basis of the orthogonal complement of source i."""
    if code != 0:
        return f"exit code {code}, expected 0"
    n, k = source_doc["n"], source_doc["k"]
    if (comp_doc.get("n"), comp_doc.get("k")) != (n, n - k):
        return f"complements in Gr({comp_doc.get('k')},{comp_doc.get('n')}), expected Gr({n - k},{n})"
    if len(comp_doc["members"]) != len(source_doc["members"]):
        return f"{len(comp_doc['members'])} complements for {len(source_doc['members'])} members"
    comp, src = members(comp_doc), members(source_doc)
    orth = np.max(np.abs(np.einsum("mij,mil->mjl", comp, comp) - np.eye(n - k)))
    cross = np.max(np.abs(np.einsum("mij,mil->mjl", src, comp)))
    if not orth <= tol:
        return f"complement basis not orthonormal (residual {orth:.3e})"
    if not cross <= tol:
        return f"complement not orthogonal to its member (residual {cross:.3e})"
    return None


def check_distance(code: int, doc: dict, expected: float, rel: float) -> str | None:
    """A single distance, right to a relative `rel`."""
    return _first(_expect_exit(code, 0), _close("value", doc.get("value"), expected, rel * abs(expected)))


def pair_values(metric: str, reps: np.ndarray) -> np.ndarray:
    """Pairwise distances of an (m, n, k) stack under thetaK or chordal, via numpy SVD."""
    values = []
    for a, b in itertools.combinations(range(len(reps)), 2):
        sig = np.clip(np.linalg.svd(reps[a].T @ reps[b], compute_uv=False), 0.0, 1.0)
        if metric == "thetaK":
            values.append(math.acos(float(sig.min())))
        elif metric == "chordal":
            values.append(math.sqrt(max(float(np.sum(1.0 - sig * sig)), 0.0)))
        else:
            raise ValueError(f"no reference for metric {metric!r}")
    return np.array(values)


def line_packing_bound(n: int, m: int) -> float:
    """Relative bound for m > n lines in R^n: cos^2 >= (m - n) / (n (m - 1))."""
    return math.acos(math.sqrt((m - n) / (n * (m - 1))))


def simplex_bound(k: int, n: int, m: int) -> float:
    """Rankin's simplex bound on the chordal distance of m points of Gr(k, n)."""
    return math.sqrt(k * (n - k) / n * m / (m - 1))


def check_packing(
    code: int, doc: dict, metric: str, m: int, upper: float, lower: float, tol: float = 1e-9
) -> str | None:
    """The reported maximin objective is the recomputed one and lies in [lower, upper]."""
    if code != 0:
        return f"exit code {code}, expected 0"
    family = doc.get("family", {})
    if len(family.get("members", ())) != m:
        return f"{len(family.get('members', ()))} members, expected {m}"
    reps = members(family)
    gram = np.einsum("mij,mil->mjl", reps, reps) - np.eye(family["k"])
    if not np.max(np.abs(gram)) <= 1e-10:
        return "result members are not orthonormal"
    recomputed = float(pair_values(metric, reps).min())
    value = doc.get("objective_value")
    return _first(
        _close("objective_value", value, recomputed, tol),
        None if recomputed <= upper + 1e-12 else f"objective {recomputed!r} above the bound {upper!r}",
        None if recomputed >= lower else f"objective {recomputed!r} below {lower!r}",
    )
