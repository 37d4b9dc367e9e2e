"""The benchmark's output checks accept right outputs and report wrong ones.

    python3 -m pytest bench/test_bench_checks.py
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np
import pytest

import checks

ALPHA = math.acos(1 / 4)


def lift_doc(lines: np.ndarray, k: int) -> dict:
    """A block-diagonal lift built here with numpy, as a FamilyFile doc."""
    count, n = lines.shape
    reps = []
    for tup in itertools.product(range(count), repeat=k):
        rep = np.zeros((k * n, k))
        for i, idx in enumerate(tup):
            rep[i * n : (i + 1) * n, i] = lines[idx]
        reps.append(rep.tolist())
    return {"n": k * n, "k": k, "members": reps}


def simplex(n: int) -> np.ndarray:
    centered = np.eye(n + 1) - 1.0 / (n + 1)
    basis = np.linalg.svd(centered)[0][:, :n]
    vecs = centered @ basis
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def fs_scan(doc: dict) -> tuple[int, float, float]:
    reps = checks.members(doc)
    values = [
        math.acos(min(abs(np.linalg.det(reps[a].T @ reps[b])), 1.0))
        for a, b in itertools.combinations(range(len(reps)), 2)
    ]
    common = float(np.mean(values))
    return len(values), common, float(np.max(np.abs(np.array(values) - common)))


def test_fubini_study_closed_form_matches_numpy_determinants():
    pairs, common, dev = fs_scan(lift_doc(simplex(3), 2))
    want = checks.lift_fubini_study(4, 2, 1 / 3)
    assert want[0] == pairs
    assert want[1] == pytest.approx(common, abs=1e-13)
    assert want[2] == pytest.approx(dev, abs=1e-13)
    assert checks.lift_fubini_study(5, 3, 1 / 4)[0] == 7750


def test_verify_checker():
    good = {"verdict": True, "pair_count": 7750, "common_value": ALPHA}
    assert checks.check_verify(0, good, 7750, ALPHA) is None
    assert checks.check_verify(1, good, 7750, ALPHA) is not None
    assert checks.check_verify(0, dict(good, common_value=ALPHA + 1e-9), 7750, ALPHA) is not None
    assert checks.check_verify(0, dict(good, pair_count=7749), 7750, ALPHA) is not None
    assert checks.check_verify(0, dict(good, verdict=False), 7750, ALPHA) is not None
    assert checks.check_verify(0, {}, 7750, ALPHA) is not None


def test_not_equiangular_checker():
    pairs, common, dev = checks.lift_fubini_study(5, 3, 1 / 4)
    good = {"verdict": False, "pair_count": pairs, "common_value": common, "max_deviation": dev}
    assert checks.check_verify_not_equiangular(1, good, pairs, common, dev) is None
    assert checks.check_verify_not_equiangular(0, good, pairs, common, dev) is not None
    wrong = dict(good, common_value=common * (1 + 1e-9))
    assert checks.check_verify_not_equiangular(1, wrong, pairs, common, dev) is not None
    wrong = dict(good, max_deviation=dev + 1e-9)
    assert checks.check_verify_not_equiangular(1, wrong, pairs, common, dev) is not None


def test_certificate_checker():
    good = {"verdict": True, "m": 125, "lambda": 1 / 16, "diagonal_target": (15 / 16) ** 3, "bound": 82160}
    assert checks.check_certificate(0, good, 125, 3, 12, 1 / 4) is None
    for bound in (82159, 82161):
        assert checks.check_certificate(0, dict(good, bound=bound), 125, 3, 12, 1 / 4) is not None
    wrong = dict(good, diagonal_target=(15 / 16) ** 3 + 1e-10)
    assert checks.check_certificate(0, wrong, 125, 3, 12, 1 / 4) is not None
    assert checks.check_certificate(1, good, 125, 3, 12, 1 / 4) is not None


def complements_of(doc: dict) -> dict:
    out = []
    for rep in checks.members(doc):
        u = np.linalg.svd(rep)[0]
        out.append(u[:, rep.shape[1] :].tolist())
    return {"n": doc["n"], "k": doc["n"] - doc["k"], "members": out}


def test_complement_checker():
    src = lift_doc(simplex(3), 2)
    comp = complements_of(src)
    assert checks.check_complements(0, comp, src) is None
    shifted = copy.deepcopy(comp)
    shifted["members"][3][0][0] += 1e-6
    assert checks.check_complements(0, shifted, src) is not None
    swapped = copy.deepcopy(comp)
    swapped["members"][0], swapped["members"][1] = swapped["members"][1], swapped["members"][0]
    assert checks.check_complements(0, swapped, src) is not None
    assert checks.check_complements(0, dict(comp, members=comp["members"][:-1]), src) is not None


def test_distance_checker():
    assert checks.check_distance(0, {"value": 2e-9 * (1 + 1e-8)}, 2e-9, 1e-6) is None
    assert checks.check_distance(0, {"value": 0.0}, 2e-9, 1e-6) is not None
    assert checks.check_distance(0, {"value": 2.98e-9}, 2e-9, 1e-6) is not None


def icosahedral() -> np.ndarray:
    phi = (1 + math.sqrt(5)) / 2
    raw = np.array([[1, phi, 0], [-1, phi, 0], [0, 1, phi], [0, -1, phi], [phi, 0, 1], [phi, 0, -1]])
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def packing_doc(reps: np.ndarray, value: float) -> dict:
    m, n, k = reps.shape
    return {"objective_value": value, "family": {"n": n, "k": k, "members": reps.tolist()}}


def test_bounds_are_the_known_optima():
    reps = icosahedral()[:, :, None]
    assert checks.pair_values("thetaK", reps).min() == pytest.approx(checks.line_packing_bound(3, 6), abs=1e-12)
    assert checks.simplex_bound(2, 4, 6) == pytest.approx(math.sqrt(1.2))


def test_packing_checker():
    reps = icosahedral()[:, :, None]
    best = checks.line_packing_bound(3, 6)
    value = float(checks.pair_values("thetaK", reps).min())
    assert checks.check_packing(0, packing_doc(reps, value), "thetaK", 6, best, best - 5e-3) is None
    perturbed = packing_doc(reps, value + 1e-7)
    assert checks.check_packing(0, perturbed, "thetaK", 6, best, best - 5e-3) is not None
    assert checks.check_packing(0, packing_doc(reps, value), "thetaK", 6, best - 1e-6, 0.0) is not None
    assert checks.check_packing(0, packing_doc(reps, value), "thetaK", 6, best, best + 1e-6) is not None
    assert checks.check_packing(0, packing_doc(reps[:5], value), "thetaK", 6, best, 0.0) is not None
    assert checks.check_packing(2, packing_doc(reps, value), "thetaK", 6, best, 0.0) is not None


def test_packing_checker_chordal():
    rng = np.random.default_rng(0)
    reps = np.array([np.linalg.qr(rng.standard_normal((4, 2)))[0] for _ in range(6)])
    values = [
        math.sqrt(max(2.0 - float(np.sum((reps[a].T @ reps[b]) ** 2)), 0.0))
        for a, b in itertools.combinations(range(6), 2)
    ]
    value = min(values)
    upper = checks.simplex_bound(2, 4, 6)
    assert checks.check_packing(0, packing_doc(reps, value), "chordal", 6, upper, 0.0) is None
    assert checks.check_packing(0, packing_doc(reps, value * (1 + 1e-6)), "chordal", 6, upper, 0.0) is not None
