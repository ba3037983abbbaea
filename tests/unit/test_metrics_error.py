"""Unit tests for repro.metrics.error."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.metrics.error import (
    mean_square_error,
    per_attribute_rmse,
    root_mean_square_error,
)
from repro.reconstruction.base import ReconstructionResult


class TestMeanSquareError:
    def test_zero_for_identical(self):
        data = np.arange(12.0).reshape(4, 3)
        assert mean_square_error(data, data) == 0.0

    def test_known_value(self):
        original = np.zeros((2, 2))
        estimate = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert mean_square_error(original, estimate) == 1.0

    def test_accepts_reconstruction_result(self):
        original = np.zeros((2, 2))
        result = ReconstructionResult(
            estimate=np.full((2, 2), 2.0), method="X"
        )
        assert mean_square_error(original, result) == 4.0

    def test_accepts_1d_columns(self):
        assert mean_square_error([0.0, 0.0], [3.0, 4.0]) == 12.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            mean_square_error(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRootMeanSquareError:
    def test_is_sqrt_of_mse(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(10, 4))
        b = rng.normal(size=(10, 4))
        assert root_mean_square_error(a, b) == pytest.approx(
            np.sqrt(mean_square_error(a, b))
        )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(20, 3))
        b = rng.normal(size=(20, 3))
        assert root_mean_square_error(2 * a, 2 * b) == pytest.approx(
            2 * root_mean_square_error(a, b)
        )


class TestPerAttributeRmse:
    def test_per_column_values(self):
        original = np.zeros((4, 2))
        estimate = np.column_stack([np.full(4, 1.0), np.full(4, 3.0)])
        np.testing.assert_allclose(
            per_attribute_rmse(original, estimate), [1.0, 3.0]
        )

    def test_aggregates_to_overall_rmse(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(50, 5))
        b = rng.normal(size=(50, 5))
        per_attr = per_attribute_rmse(a, b)
        overall = root_mean_square_error(a, b)
        assert np.sqrt(np.mean(per_attr**2)) == pytest.approx(overall)


# ----------------------------------------------------------------------
# Validation contract: the same inputs raise the same errors (and emit
# the same warnings) however the scoring functions order their checks.
# ----------------------------------------------------------------------
_SCORES = (mean_square_error, root_mean_square_error, per_attribute_rmse)
_CELLS = ((0, 0), (4, 2), (2, 1))  # first, last, interior of a (5, 3)
_NOT_FINITE = "contains NaN or infinite values"


def _pair():
    rng = np.random.default_rng(11)
    return rng.normal(size=(5, 3)), rng.normal(size=(5, 3))


# A RuntimeWarning (e.g. numpy's "invalid value" for inf - inf) must not
# reach the caller before the ValidationError.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestValidationContract:
    @pytest.mark.parametrize("score", _SCORES)
    @pytest.mark.parametrize("cell", _CELLS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "where, blamed",
        [
            ("original", "original"),
            ("estimate", "estimate"),
            # inf - inf, nan - nan: the original is checked first.
            ("both", "original"),
        ],
    )
    def test_non_finite_cell_rejected(self, score, cell, bad, where, blamed):
        original, estimate = _pair()
        if where in ("original", "both"):
            original[cell] = bad
        if where in ("estimate", "both"):
            estimate[cell] = bad
        with pytest.raises(ValidationError, match=f"'{blamed}' {_NOT_FINITE}"):
            score(original, estimate)

    @pytest.mark.parametrize("score", _SCORES)
    def test_opposite_infinities_rejected(self, score):
        original, estimate = _pair()
        original[1, 1] = np.inf
        estimate[1, 1] = -np.inf
        original[3, 1] = -np.inf
        with pytest.raises(ValidationError, match=f"'original' {_NOT_FINITE}"):
            score(original, estimate)

    @pytest.mark.parametrize("score", _SCORES)
    def test_original_nan_beats_shape_mismatch(self, score):
        original = np.zeros((5, 3))
        original[2, 2] = np.nan
        with pytest.raises(ValidationError, match=f"'original' {_NOT_FINITE}"):
            score(original, np.zeros((4, 3)))

    @pytest.mark.parametrize("score", _SCORES)
    def test_estimate_nan_beats_shape_mismatch(self, score):
        estimate = np.zeros((4, 3))
        estimate[0, 0] = np.nan
        with pytest.raises(ValidationError, match=f"'estimate' {_NOT_FINITE}"):
            score(np.zeros((5, 3)), estimate)

    @pytest.mark.parametrize("score", _SCORES)
    def test_1d_nan_rejected(self, score):
        with pytest.raises(ValidationError, match=f"'estimate' {_NOT_FINITE}"):
            score([1.0, 2.0, 3.0], [1.0, np.nan, 3.0])

    @pytest.mark.parametrize("score", _SCORES)
    def test_1d_column_pairs_with_matrix_column(self, score):
        value = score([0.0, 0.0], np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(value, score([0.0, 0.0], [3.0, 4.0]))

    @pytest.mark.parametrize("score", _SCORES)
    def test_1d_length_mismatch_rejected(self, score):
        with pytest.raises(ValidationError, match="shape"):
            score([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("score", _SCORES)
    @pytest.mark.parametrize(
        "shape, match",
        [((0,), "at least 1 rows"), ((0, 3), "at least 1 rows"),
         ((3, 0), "at least 1 columns")],
    )
    def test_empty_rejected(self, score, shape, match):
        with pytest.raises(ValidationError, match=match):
            score(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("score", _SCORES)
    def test_3d_rejected(self, score):
        with pytest.raises(ValidationError, match="'original' has shape"):
            score(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("score", _SCORES)
    def test_3d_original_beats_estimate_nan(self, score):
        with pytest.raises(ValidationError, match="'original' has shape"):
            score(np.zeros((2, 2, 2)), np.full((2, 2), np.nan))

    @pytest.mark.parametrize("score", _SCORES)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_returns_inf_with_warning(self, score, sign):
        original = np.full((4, 3), sign * 1e200)
        with pytest.warns(RuntimeWarning, match="overflow"):
            value = score(original, -original)
        assert np.all(np.isinf(value))
        assert np.all(np.asarray(value) > 0.0)
