"""Unit tests for repro.linalg.gram_schmidt."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.linalg.gram_schmidt import (
    gram_schmidt,
    is_orthonormal,
    random_orthogonal,
)


class TestGramSchmidt:
    def test_orthonormalizes_random_matrix(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((8, 8))
        q = gram_schmidt(matrix)
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-12)

    def test_preserves_column_span(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((6, 3))
        q = gram_schmidt(matrix)
        # Each original column must be reproducible from the basis.
        reconstructed = q @ (q.T @ matrix)
        np.testing.assert_allclose(reconstructed, matrix, atol=1e-10)

    def test_tall_matrix_supported(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((10, 4))
        q = gram_schmidt(matrix)
        assert q.shape == (10, 4)
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValidationError, match="too many columns"):
            gram_schmidt(np.ones((2, 3)))

    def test_rejects_dependent_columns(self):
        matrix = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValidationError, match="dependent"):
            gram_schmidt(matrix)

    def test_rejects_zero_column(self):
        matrix = np.array([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValidationError, match="zero"):
            gram_schmidt(matrix)

    def test_ill_conditioned_input_stays_orthonormal(self):
        # Nearly parallel columns stress the re-orthogonalization sweep.
        base = np.random.default_rng(3).standard_normal(50)
        second = base + 1e-7 * np.random.default_rng(4).standard_normal(50)
        q = gram_schmidt(np.column_stack([base, second]))
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-10)

    def test_single_sweep_option_runs(self):
        rng = np.random.default_rng(5)
        q = gram_schmidt(rng.standard_normal((5, 5)), reorthogonalize=False)
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-8)


class TestIsOrthonormal:
    def test_identity_is_orthonormal(self):
        assert is_orthonormal(np.eye(4))

    def test_scaled_identity_is_not(self):
        assert not is_orthonormal(2.0 * np.eye(4))

    def test_rectangular_orthonormal_columns(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert is_orthonormal(q)


class TestRandomOrthogonal:
    def test_result_is_orthogonal(self):
        q = random_orthogonal(7, rng=0)
        np.testing.assert_allclose(q @ q.T, np.eye(7), atol=1e-10)
        np.testing.assert_allclose(q.T @ q, np.eye(7), atol=1e-10)

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(
            random_orthogonal(5, rng=3), random_orthogonal(5, rng=3)
        )

    def test_determinant_magnitude_one(self):
        q = random_orthogonal(6, rng=1)
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10

    def test_dim_one(self):
        q = random_orthogonal(1, rng=0)
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-12

    def test_rejects_bad_dim(self):
        with pytest.raises(ValidationError):
            random_orthogonal(0)

    def test_mean_is_centered(self):
        # Haar-distributed entries have zero mean; check loosely over draws.
        total = np.zeros((4, 4))
        for seed in range(200):
            total += random_orthogonal(4, rng=seed)
        assert np.abs(total / 200).max() < 0.15

    @pytest.mark.parametrize("dim", [1, 2, 7, 60, 100])
    def test_matches_gram_schmidt_of_the_same_draw(self, dim):
        # QR with a positive R diagonal is unique, so the LAPACK draw is
        # the reference Gram-Schmidt basis of the same Gaussian matrix.
        gaussian = np.random.default_rng(11).standard_normal((dim, dim))
        q = random_orthogonal(dim, rng=11)
        assert np.abs(q - gram_schmidt(gaussian)).max() < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 7, 60, 100])
    def test_r_diagonal_is_positive(self, dim):
        # Pins the sign fix: LAPACK's R has a mixed-sign diagonal, and
        # without the fix the columns it flips make the draw neither
        # Haar nor equal to Gram-Schmidt.
        gaussian = np.random.default_rng(11).standard_normal((dim, dim))
        q = random_orthogonal(dim, rng=11)
        assert np.all(np.diag(q.T @ gaussian) > 0.0)
