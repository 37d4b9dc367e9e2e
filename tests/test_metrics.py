"""Metric registry and distance-formula tests."""

import numpy as np
import pytest

from grasspack.constructions import lift_lines_to_subspaces, simplex_lines
from grasspack.errors import UnknownMetricError
from grasspack.grassmann import Subspace, random_subspace, spectra, subspace_from_spanning
from grasspack.linalg import orthonormalize
from grasspack.metrics import (
    evaluate,
    geodesic,
    pair_distances,
    theta_1,
    theta_F,
    theta_k,
)
from grasspack.registry import (
    CHORDAL,
    FUBINI_STUDY,
    GEODESIC,
    METRICS,
    THETA_1,
    THETA_F,
    THETA_K,
    Metric,
    get_metric,
)

from _oracles import chordal, chordal_trace_form, complement, fubini_study_from_spectrum


def test_registry_flags():
    angle_ids = {m.id for m in METRICS.values() if m.is_angle_distance}
    assert angle_ids == {"theta_1", "theta_F", "theta_k"}
    improper = {m.id for m in METRICS.values() if not m.is_proper}
    assert improper == {"theta_1"}


def test_metric_entries_behave_as_values():
    reprs = {
        THETA_1: "Metric(id='theta_1', cli_name='theta1', is_angle_distance=True, is_proper=False)",
        THETA_F: "Metric(id='theta_F', cli_name='thetaF', is_angle_distance=True, is_proper=True)",
        THETA_K: "Metric(id='theta_k', cli_name='thetaK', is_angle_distance=True, is_proper=True)",
        CHORDAL: "Metric(id='chordal', cli_name='chordal', is_angle_distance=False, is_proper=True)",
        GEODESIC: "Metric(id='geodesic', cli_name='geodesic', is_angle_distance=False, is_proper=True)",
        FUBINI_STUDY: (
            "Metric(id='fubini_study', cli_name='fubini-study', "
            "is_angle_distance=False, is_proper=True)"
        ),
    }
    assert list(reprs) == list(METRICS.values())
    for metric, text in reprs.items():
        assert repr(metric) == text
        assert get_metric(metric) is metric
        assert METRICS[metric.id] is metric
        with pytest.raises(AttributeError):
            metric.id = "other"
    made = Metric(id="theta_F", cli_name="thetaF", is_angle_distance=True, is_proper=True)
    assert made == THETA_F and hash(made) == hash(THETA_F)
    assert reprs[made] == reprs[THETA_F]


def test_get_metric_accepts_both_names():
    assert get_metric("thetaF") is THETA_F
    assert get_metric("theta_F") is THETA_F
    assert get_metric("fubini-study") is FUBINI_STUDY
    assert get_metric(CHORDAL) is CHORDAL


def test_get_metric_unknown():
    with pytest.raises(UnknownMetricError):
        get_metric("spectral")


def test_theta_1_examples():
    assert theta_1(np.array([0.0, 0.6])) == 0.0
    assert theta_1(np.array([np.pi / 2, np.pi / 2])) == np.pi / 2


def test_theta_1_vanishes_for_planes_in_r3():
    # two planes in R^3 always share a line
    rng = np.random.default_rng(71)
    for _ in range(25):
        u = random_subspace(3, 2, rng)
        v = random_subspace(3, 2, rng)
        assert evaluate(THETA_1, u, v) <= 1e-7


def test_theta_f_examples():
    assert theta_F(np.array([0.0, np.pi / 3])) == pytest.approx(np.pi / 3)
    assert theta_F(np.array([0.0, 0.0])) == 0.0
    assert theta_F(np.array([0.2, 0.5, 0.9])) == pytest.approx(0.2)


def test_theta_f_threshold_is_configurable():
    spectrum = np.array([1e-5, 0.4])
    assert theta_F(spectrum) == pytest.approx(1e-5)
    assert theta_F(spectrum, eps_angle=1e-4) == pytest.approx(0.4)


def test_theta_k_examples():
    assert theta_k(np.array([0.0, 0.6])) == pytest.approx(0.6)
    assert theta_k(np.array([0.0, 0.0])) == 0.0
    assert theta_k(np.array([np.pi / 2, np.pi / 2])) == pytest.approx(np.pi / 2)


def test_chordal_examples():
    assert chordal(np.array([np.pi / 2])) == pytest.approx(1.0)
    assert chordal(np.array([0.0, 0.0])) == 0.0


def test_chordal_angle_form_equals_trace_form():
    rng = np.random.default_rng(73)
    for _ in range(25):
        u = random_subspace(5, 2, rng)
        v = random_subspace(5, 2, rng)
        assert evaluate(CHORDAL, u, v) == pytest.approx(
            chordal_trace_form(u, v), abs=1e-9
        )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chordal_residual_norm_matches_angle_route(k):
    rng = np.random.default_rng(113 + k)
    us = [random_subspace(7, k, rng) for _ in range(20)]
    vs = [random_subspace(7, k, rng) for _ in range(20)]
    a = np.array([u.rep for u in us])
    b = np.array([v.rep for v in vs])
    got = pair_distances(CHORDAL, a, b)
    np.testing.assert_allclose(got, chordal(spectra(a, b)), rtol=1e-12)
    np.testing.assert_allclose(got, [chordal_trace_form(u, v) for u, v in zip(us, vs)], rtol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chordal_residual_norm_on_planted_angles(k):
    # V = U cos(T) + W sin(T) with angles T from 1e-12 to pi/2, k at a time
    planted = [1e-12, 1e-9, 3e-8, 1e-6, 1e-3, 0.5, 1.2, np.pi / 2]
    # in a signed-permutation frame the planted pair is stored exactly, so the
    # residual norm must give sqrt(sum sin^2 T) to roundoff
    exact = np.eye(6)[[3, 0, 5, 1, 4, 2]] * np.array([1, -1, 1, 1, -1, -1])
    # in a random frame, rounding V moves the stored pair by ~1e-17 (1e-5 of
    # the smallest angle): there the two routes must agree with each other,
    # and with sqrt(sum sin^2 T) at test_principal_angles_forced_spectrum's bound
    rotated = orthonormalize(np.random.default_rng(29).standard_normal((6, 6)))
    for i in range(len(planted) - k + 1):
        t = np.array(planted[i : i + k])
        want = np.sqrt((np.sin(t) ** 2).sum())
        # Fubini-Study's reference is sqrt(sum T^2), exact to O(T^2), while
        # T <= 1e-6 (there arccos prod cos T has lost digits), and that arccos above
        want_fs = np.sqrt((t**2).sum()) if t.max() <= 1e-6 else fubini_study_from_spectrum(t)
        for frame in (exact, rotated):
            u = Subspace(frame[:, :k])
            v = Subspace(frame[:, :k] * np.cos(t) + frame[:, k : 2 * k] * np.sin(t))
            got = pair_distances(CHORDAL, u.rep, v.rep)
            got_fs = pair_distances(FUBINI_STUDY, u.rep, v.rep)
            assert got == pytest.approx(chordal(spectra(u.rep, v.rep)), rel=1e-12)
            assert got == pytest.approx(chordal_trace_form(u, v), abs=1e-8)
            if frame is exact:
                assert got == pytest.approx(want, rel=1e-12), (t, got)
                assert got_fs == pytest.approx(want_fs, rel=1e-6), (t, got_fs)
            else:
                assert abs(got - want) <= 1e-6 * want + 1e-15, (t, got)
                assert abs(got_fs - want_fs) <= 1e-6 * want_fs + 1e-15, (t, got_fs)


def test_chordal_residual_norm_accepts_valid_near_one_cosines():
    # an orthonormal pair with ||C||_F > 1 reads its sines from the residual norm alone
    frame = orthonormalize(np.random.default_rng(31).standard_normal((5, 5)))
    t = np.array([0.1, 0.2])
    v = frame[:, :2] * np.cos(t) + frame[:, 2:4] * np.sin(t)
    assert pair_distances(CHORDAL, frame[:, :2], v) == pytest.approx(
        np.sqrt((np.sin(t) ** 2).sum()), rel=1e-12
    )
    # so do lines at |a^T b| = 1 - 1e-12
    c = 1.0 - 1e-12
    s = np.sqrt((1.0 - c) * (1.0 + c))
    axes = np.eye(3)[:, :, None]
    near = np.stack([axes[0] * c + axes[1] * s, axes[1]])
    np.testing.assert_allclose(pair_distances(CHORDAL, axes[0], near), [s, 1.0], rtol=1e-12)


def test_geodesic_examples():
    assert geodesic(np.array([np.pi / 2, np.pi / 2])) == pytest.approx(np.pi / np.sqrt(2))
    assert geodesic(np.array([0.0, 0.0, 0.0])) == 0.0
    assert geodesic(np.array([0.3, 0.4])) == pytest.approx(0.5)


def test_fubini_study_identical():
    rng = np.random.default_rng(79)
    u = random_subspace(4, 2, rng)
    assert evaluate(FUBINI_STUDY, u, u) == pytest.approx(0.0, abs=1e-7)


def test_fubini_study_right_angle_pair():
    u = subspace_from_spanning(np.eye(4)[:, :2])
    v = subspace_from_spanning(np.eye(4)[:, 2:])
    assert evaluate(FUBINI_STUDY, u, v) == pytest.approx(np.pi / 2)


def test_fubini_study_det_form_equals_product_form():
    rng = np.random.default_rng(83)
    from grasspack.grassmann import principal_angles

    for _ in range(25):
        u = random_subspace(4, 2, rng)
        v = random_subspace(4, 2, rng)
        spectrum = principal_angles(u, v)
        assert evaluate(FUBINI_STUDY, u, v) == pytest.approx(
            fubini_study_from_spectrum(spectrum), abs=1e-9
        )


def test_evaluate_dispatch_examples():
    rng = np.random.default_rng(89)
    u = random_subspace(4, 2, rng)
    assert evaluate(THETA_K, u, u) == pytest.approx(0.0, abs=1e-7)

    planes_u = subspace_from_spanning(np.eye(4)[:, :2])
    planes_v = subspace_from_spanning(np.eye(4)[:, 2:])
    assert evaluate(CHORDAL, planes_u, planes_v) == pytest.approx(np.sqrt(2.0))

    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    assert evaluate(THETA_F, family[0], family[4]) == pytest.approx(np.pi / 3, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, 10.0])
def test_evaluate_rejects_bad_eps_angle(bad):
    family = lift_lines_to_subspaces(simplex_lines(2), 2)
    with pytest.raises(ValueError, match="eps_angle must lie in"):
        evaluate(THETA_F, family[0], family[4], bad)


def test_sandwich_property():
    rng = np.random.default_rng(97)
    for _ in range(25):
        u = random_subspace(6, 3, rng)
        v = random_subspace(6, 3, rng)
        lo = evaluate(THETA_F, u, v)
        hi = evaluate(THETA_K, u, v)
        for metric in (THETA_F, THETA_K):
            d = evaluate(metric, u, v)
            assert lo - 1e-12 <= d <= hi + 1e-12


def test_complement_invariance_of_proper_metrics():
    rng = np.random.default_rng(101)
    for _ in range(25):
        u = random_subspace(5, 2, rng)
        v = random_subspace(5, 2, rng)
        cu, cv = complement(u), complement(v)
        for metric in (THETA_F, THETA_K, CHORDAL, FUBINI_STUDY):
            assert evaluate(metric, u, v) == pytest.approx(
                evaluate(metric, cu, cv), abs=1e-9
            )


def test_geodesic_complement_invariance_observation():
    # empirical observation, not a contract: zero angles do not move d_G either
    rng = np.random.default_rng(103)
    for _ in range(10):
        u = random_subspace(5, 2, rng)
        v = random_subspace(5, 2, rng)
        assert evaluate(GEODESIC, u, v) == pytest.approx(
            evaluate(GEODESIC, complement(u), complement(v)), abs=1e-9
        )


def test_metrics_symmetric_nonnegative_proper():
    rng = np.random.default_rng(107)
    u = random_subspace(5, 2, rng)
    v = random_subspace(5, 2, rng)
    for metric in METRICS.values():
        duv = evaluate(metric, u, v)
        dvu = evaluate(metric, v, u)
        assert duv >= 0.0
        assert duv == pytest.approx(dvu, abs=1e-10)
        if metric.is_proper:
            assert evaluate(metric, u, u) <= 1e-7
            assert duv > 1e-3  # random distinct pair


def test_pair_distances_on_stacks_match_single_pairs():
    rng = np.random.default_rng(109)
    members = [random_subspace(5, 2, rng) for _ in range(6)]
    stack = np.array([m.rep for m in members])
    for metric in METRICS.values():
        row = pair_distances(metric, members[0].rep, stack)
        pairs = pair_distances(metric, stack[:3], stack[3:])
        assert row.shape == (6,) and pairs.shape == (3,)
        np.testing.assert_allclose(
            row, [evaluate(metric, members[0], v) for v in members], atol=1e-12
        )
        np.testing.assert_allclose(
            pairs, [evaluate(metric, members[i], members[i + 3]) for i in range(3)], atol=1e-12
        )
