"""Unit tests for repro.linalg.covariance (Theorem 5.1 / 8.2 estimators)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.linalg.covariance import (
    correlation_from_covariance,
    covariance_from_disguised,
    sample_covariance,
    sample_mean,
)
from repro.linalg.psd import is_positive_semidefinite


class TestSampleMoments:
    def test_sample_mean(self):
        data = np.array([[1.0, 10.0], [3.0, 30.0]])
        np.testing.assert_allclose(sample_mean(data), [2.0, 20.0])

    def test_sample_covariance_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((200, 4))
        np.testing.assert_allclose(
            sample_covariance(data), np.cov(data, rowvar=False), atol=1e-12
        )

    def test_sample_covariance_ddof_zero(self):
        data = np.array([[0.0, 0.0], [2.0, 2.0]])
        cov = sample_covariance(data, ddof=0)
        np.testing.assert_allclose(cov, np.ones((2, 2)))

    def test_needs_enough_rows(self):
        with pytest.raises(ValidationError, match="rows"):
            sample_covariance(np.ones((1, 3)))

    def test_result_symmetric(self):
        rng = np.random.default_rng(1)
        cov = sample_covariance(rng.standard_normal((50, 6)))
        np.testing.assert_array_equal(cov, cov.T)


_NOT_FINITE = "'data' contains NaN or infinite values"


# A RuntimeWarning (e.g. numpy's "invalid value" for inf - inf) must not
# reach the caller before the ValidationError.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSampleCovarianceValidation:
    """The same inputs raise the same errors however the checks are ordered."""

    @staticmethod
    def _data():
        data = np.random.default_rng(3).normal(size=(6, 3))
        data[:, 2] = 0.0  # exact zeros: inf * 0 inside the product
        return data

    @pytest.mark.parametrize("cell", [(0, 0), (5, 2), (3, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, cell, bad):
        data = self._data()
        data[cell] = bad
        with pytest.raises(ValidationError, match=_NOT_FINITE):
            sample_covariance(data)

    def test_opposite_infinities_in_one_column_rejected(self):
        data = self._data()
        data[0, 1] = np.inf
        data[4, 1] = -np.inf
        with pytest.raises(ValidationError, match=_NOT_FINITE):
            sample_covariance(data)

    def test_nan_beats_too_few_rows(self):
        with pytest.raises(ValidationError, match=_NOT_FINITE):
            sample_covariance(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_not_a_matrix_rejected(self, shape):
        with pytest.raises(ValidationError, match="'data' has shape"):
            sample_covariance(np.zeros(shape))

    @pytest.mark.parametrize(
        "shape, match",
        [((0, 3), "at least 1 rows"), ((3, 0), "at least 1 columns")],
    )
    def test_empty_rejected(self, shape, match):
        with pytest.raises(ValidationError, match=match):
            sample_covariance(np.zeros(shape))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_returns_inf_with_warning(self, sign):
        data = sign * np.array([[1e200, 1.0], [-1e200, 2.0], [3e200, 0.0]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            cov = sample_covariance(data)
        assert cov[0, 0] == np.inf
        assert np.isfinite(cov[1, 1])


class TestCovarianceFromDisguised:
    """Theorem 5.1: Cov(Y) = Cov(X) + sigma^2 I recovers Cov(X)."""

    def _make_disguised(self, n=20000, sigma=3.0, seed=0):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n, 1))
        original = np.column_stack(
            [
                4.0 * base[:, 0],
                2.0 * base[:, 0] + rng.standard_normal(n),
                rng.standard_normal(n),
            ]
        )
        noise = rng.normal(0.0, sigma, size=original.shape)
        return original, original + noise, sigma

    def test_recovers_original_covariance(self):
        original, disguised, sigma = self._make_disguised()
        estimate = covariance_from_disguised(disguised, sigma**2)
        truth = sample_covariance(original)
        np.testing.assert_allclose(estimate, truth, atol=0.35)

    def test_off_diagonals_untouched(self):
        # Subtracting sigma^2 I must leave off-diagonals equal to the
        # disguised sample covariance's off-diagonals.
        _, disguised, sigma = self._make_disguised(n=500)
        estimate = covariance_from_disguised(
            disguised, sigma**2, ensure_psd=False
        )
        raw = sample_covariance(disguised)
        off_mask = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(estimate[off_mask], raw[off_mask])

    def test_diagonal_reduced_by_variance(self):
        _, disguised, sigma = self._make_disguised(n=500)
        estimate = covariance_from_disguised(
            disguised, sigma**2, ensure_psd=False
        )
        raw = sample_covariance(disguised)
        np.testing.assert_allclose(
            np.diag(raw) - np.diag(estimate), np.full(3, sigma**2)
        )

    def test_psd_repair_applied(self):
        # Tiny sample + big claimed noise variance forces negative
        # eigenvalues before repair.
        rng = np.random.default_rng(2)
        disguised = rng.standard_normal((10, 4))
        estimate = covariance_from_disguised(disguised, 25.0)
        assert is_positive_semidefinite(estimate)

    def test_vector_noise_variances(self):
        rng = np.random.default_rng(3)
        disguised = rng.standard_normal((100, 2)) * 5.0
        estimate = covariance_from_disguised(
            disguised, [1.0, 2.0], ensure_psd=False
        )
        raw = sample_covariance(disguised)
        assert raw[0, 0] - estimate[0, 0] == pytest.approx(1.0)
        assert raw[1, 1] - estimate[1, 1] == pytest.approx(2.0)

    def test_full_noise_covariance_theorem82(self):
        rng = np.random.default_rng(4)
        noise_cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        disguised = rng.standard_normal((100, 2)) * 4.0
        estimate = covariance_from_disguised(
            disguised, noise_cov, ensure_psd=False
        )
        raw = sample_covariance(disguised)
        np.testing.assert_allclose(raw - estimate, noise_cov)

    def test_rejects_negative_scalar_variance(self):
        with pytest.raises(ValidationError):
            covariance_from_disguised(np.ones((5, 2)) + np.eye(5, 2), -1.0)

    def test_rejects_wrong_length_vector(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValidationError, match="length"):
            covariance_from_disguised(
                rng.standard_normal((10, 3)), [1.0, 2.0]
            )

    def test_rejects_negative_vector_entries(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValidationError):
            covariance_from_disguised(
                rng.standard_normal((10, 2)), [1.0, -2.0]
            )

    def test_rejects_wrong_size_matrix(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValidationError):
            covariance_from_disguised(
                rng.standard_normal((10, 3)), np.eye(2)
            )


class TestCorrelationFromCovariance:
    def test_unit_diagonal(self):
        cov = np.array([[4.0, 2.0], [2.0, 9.0]])
        corr = correlation_from_covariance(cov)
        np.testing.assert_allclose(np.diag(corr), [1.0, 1.0])

    def test_known_value(self):
        cov = np.array([[4.0, 3.0], [3.0, 9.0]])
        corr = correlation_from_covariance(cov)
        assert corr[0, 1] == pytest.approx(0.5)

    def test_clipped_to_valid_range(self):
        # Numerically inflated covariance must not give |rho| > 1.
        cov = np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]])
        corr = correlation_from_covariance(cov)
        assert np.abs(corr).max() <= 1.0

    def test_rejects_zero_variance(self):
        with pytest.raises(ValidationError, match="non-positive"):
            correlation_from_covariance(np.diag([1.0, 0.0]))
