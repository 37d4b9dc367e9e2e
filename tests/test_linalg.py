"""Kernel tests: orthonormalization, symmetric eigenvalues, singular values, determinants."""

import math

import numpy as np
import pytest

from grasspack.errors import NotSymmetricError, RankDeficientError
from grasspack.linalg import (
    EPS_ANGLE,
    EPS_ORTH,
    ClampError,
    check_eps_angle,
    clamp_unit_interval,
    determinant,
    orthonormalize,
    orthonormalize_stack,
    singular_values,
    symmetric_eigenvalues,
)

from _oracles import charpoly_eigenvalues, cofactor_det


def test_tolerance_policy_defaults():
    assert EPS_ORTH == 1e-10
    assert EPS_ANGLE == 1e-7
    assert check_eps_angle(EPS_ANGLE) == EPS_ANGLE
    assert check_eps_angle(1e-12) == 1e-12


# eps_angle is the one settable threshold; EPS_ORTH is a constant
@pytest.mark.parametrize("field", ["eps_angle"])
@pytest.mark.parametrize("bad", [0.0, -1e-8, 0.5, math.nan])
def test_tolerance_policy_rejects_out_of_range(field, bad):
    with pytest.raises(ValueError, match=rf"{field} must lie in \(0, 1e-2\), got {bad!r}"):
        check_eps_angle(bad)


def test_clamp_within_slack_is_silent():
    assert clamp_unit_interval(1.0 + 1e-12) == 1.0
    assert clamp_unit_interval(-1e-12) == 0.0
    assert clamp_unit_interval(0.5) == 0.5


def test_clamp_beyond_slack_raises():
    with pytest.raises(ClampError):
        clamp_unit_interval(1.0 + 1e-6)
    with pytest.raises(ClampError):
        clamp_unit_interval(-1e-6)


def test_orthonormalize_identity_columns_unchanged():
    a = np.eye(3)[:, :2]
    np.testing.assert_allclose(orthonormalize(a), a)


def test_orthonormalize_gram_schmidt_forced():
    a = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    q = orthonormalize(a)
    np.testing.assert_allclose(np.abs(q), np.eye(3)[:, :2], atol=1e-14)


def test_orthonormalize_random_residual():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.standard_normal((6, 3))
        if np.linalg.cond(a) > 1e3:
            continue
        q = orthonormalize(a)
        assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-12


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 2))
    q = orthonormalize(a)
    # every original column lies in the span of q
    residual = a - q @ (q.T @ a)
    assert np.max(np.abs(residual)) < 1e-12


def test_orthonormalize_idempotent_up_to_signs():
    rng = np.random.default_rng(3)
    q = orthonormalize(rng.standard_normal((7, 4)))
    q2 = orthonormalize(q)
    np.testing.assert_allclose(np.abs(q2), np.abs(q), atol=1e-10)


def test_orthonormalize_rank_deficient_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficientError):
        orthonormalize(a)


def test_orthonormalize_stack_matches_orthonormalize():
    rng = np.random.default_rng(41)
    for k in (1, 2, 3):
        stack = rng.standard_normal((4, 2, 5, k))
        stack[1, 0] = 0.0  # rank deficient: a zero column
        q, independent = orthonormalize_stack(stack)
        assert q.shape == stack.shape and np.all(np.isfinite(q))
        assert independent.tolist() == [[True, True], [False, True], [True, True], [True, True]]
        for idx in [(0, 0), (1, 1), (2, 0), (3, 1)]:
            if k == 1:  # divided by the norm directly, not through LAPACK
                np.testing.assert_allclose(q[idx], orthonormalize(stack[idx]), atol=1e-15)
            else:
                assert np.array_equal(q[idx], orthonormalize(stack[idx]))
    dependent = np.array([[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]])
    assert orthonormalize_stack(dependent)[1].tolist() == [False]


def test_orthonormalize_more_cols_than_rows_raises():
    with pytest.raises(RankDeficientError):
        orthonormalize(np.ones((2, 3)))


def test_matrix_validation_rejects_nonfinite():
    with pytest.raises(ValueError):
        orthonormalize(np.array([[np.nan], [1.0]]))
    with pytest.raises(ValueError):
        orthonormalize(np.array([[np.inf], [1.0]]))


def test_symmetric_eigenvalues_diagonal():
    np.testing.assert_allclose(
        symmetric_eigenvalues(np.diag([1.0, 0.25])), [1.0, 0.25]
    )


def test_symmetric_eigenvalues_classic_2x2():
    np.testing.assert_allclose(
        symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [3.0, 1.0]
    )


def test_symmetric_eigenvalues_match_charpoly_roots():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        s = 0.5 * (a + a.T)
        got = symmetric_eigenvalues(s)
        expected = charpoly_eigenvalues(s)
        np.testing.assert_allclose(got, expected, atol=1e-8)


def test_symmetric_eigenvalues_orthogonal_similarity_invariant():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 5))
    s = 0.5 * (a + a.T)
    q = orthonormalize(rng.standard_normal((5, 5)))
    np.testing.assert_allclose(
        symmetric_eigenvalues(q.T @ s @ q), symmetric_eigenvalues(s), atol=1e-9
    )


def test_symmetric_eigenvalues_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues(np.ones((2, 3)))


def test_singular_values_identity():
    np.testing.assert_allclose(singular_values(np.eye(4)), np.ones(4))


def test_singular_values_padded_diagonal():
    a = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(singular_values(a), [3.0, 0.0])


def test_singular_values_square_with_eigenvalues_of_gram():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.standard_normal((4, 2))
        sig = singular_values(a)
        lam = symmetric_eigenvalues(a.T @ a)
        np.testing.assert_allclose(sig**2, lam, atol=1e-9)


def test_singular_values_transpose_invariant():
    rng = np.random.default_rng(22)
    for shape in [(5, 3), (3, 5), (4, 4)]:
        a = rng.standard_normal(shape)
        np.testing.assert_allclose(
            singular_values(a), singular_values(a.T), atol=1e-9
        )


def test_kernels_agree_with_numpy_at_scale():
    # the char-poly oracle stops at 5x5; numpy covers the larger sizes
    rng = np.random.default_rng(77)
    a = rng.standard_normal((40, 40))
    s = 0.5 * (a + a.T)
    np.testing.assert_allclose(
        symmetric_eigenvalues(s), np.sort(np.linalg.eigvalsh(s))[::-1], atol=1e-11
    )
    b = rng.standard_normal((30, 12))
    np.testing.assert_allclose(
        singular_values(b), np.linalg.svd(b, compute_uv=False), atol=1e-11
    )
    c = rng.standard_normal((8, 8))
    assert determinant(c) == pytest.approx(float(np.linalg.det(c)), rel=1e-10)


def test_determinant_identity():
    assert determinant(np.eye(4)) == pytest.approx(1.0, abs=1e-14)


def test_determinant_diagonal_example():
    lam = 0.25
    a = np.diag([1.0 - lam, 1.0 - lam])
    assert determinant(a) == pytest.approx(0.5625, abs=1e-14)


def test_determinant_matches_cofactor_expansion():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        assert determinant(a) == pytest.approx(cofactor_det(a), rel=1e-10, abs=1e-12)


def test_determinant_product_rule():
    rng = np.random.default_rng(32)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        lhs = determinant(a @ b)
        rhs = determinant(a) * determinant(b)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_determinant_singular_is_zero():
    a = np.ones((5, 5))
    assert determinant(a) == pytest.approx(0.0, abs=1e-12)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(np.ones((2, 3)))
