"""Unit tests for the built-in ablation specs' interfaces and validation.

Behavioural (shape) assertions live in tests/integration/test_ablations;
these cover what the specs produce through ``run_spec`` at tiny scale.
"""

import numpy as np
import pytest

from repro.api import run_spec
from repro.api.builtin import (
    ablation_covariance_spec,
    ablation_marginals_spec,
    ablation_samplesize_spec,
    ablation_selection_spec,
    ablation_utility_spec,
)
from repro.api.config import ExperimentSeries
from repro.exceptions import ConfigurationError


def _series(spec):
    return run_spec(spec).to_series()


class TestInterfaces:
    def test_selection_returns_series(self):
        series = _series(
            ablation_selection_spec(
                n_attributes=12, n_principal=3, n_records=200, seed=1
            )
        )
        assert isinstance(series, ExperimentSeries)
        assert series.name == "ablation-selection"
        assert len(series.methods) == 3
        assert series.x_values.size == 2  # two workloads

    def test_covariance_series_shape(self):
        series = _series(
            ablation_covariance_spec(
                sample_sizes=(100, 300), n_attributes=10, seed=2
            )
        )
        assert series.x_values.tolist() == [100.0, 300.0]
        assert set(series.methods) == {
            "PCA-estimated",
            "PCA-oracle",
            "BE-estimated",
            "BE-oracle",
        }

    def test_samplesize_series_shape(self):
        series = _series(
            ablation_samplesize_spec(
                sample_sizes=(150, 400), n_attributes=10, seed=3
            )
        )
        assert series.x_values.tolist() == [150.0, 400.0]
        assert "BE-DR" in series.methods

    def test_utility_series_shape(self):
        series = _series(
            ablation_utility_spec(n_train=600, n_test=400, seed=4)
        )
        assert series.x_values.size == 2  # iid vs correlated
        assert set(series.methods) == {
            "original",
            "disguised_naive",
            "disguised_corrected",
        }
        for method in series.methods:
            values = series.curve(method)
            assert np.all((0.0 <= values) & (values <= 1.0))

    def test_marginals_series_records_shapes(self):
        series = _series(
            ablation_marginals_spec(
                marginals=("normal", "uniform"),
                n_attributes=10,
                n_records=300,
                seed=5,
            )
        )
        assert series.metadata["marginals"] == ["normal", "uniform"]
        assert series.x_values.size == 2

    def test_deterministic_given_seed(self):
        a = _series(
            ablation_samplesize_spec(
                sample_sizes=(150,), n_attributes=8, seed=9
            )
        )
        b = _series(
            ablation_samplesize_spec(
                sample_sizes=(150,), n_attributes=8, seed=9
            )
        )
        for method in a.methods:
            np.testing.assert_array_equal(a.curve(method), b.curve(method))


class TestValidation:
    def test_covariance_rejects_empty_sizes(self):
        with pytest.raises(ConfigurationError):
            _series(ablation_covariance_spec(sample_sizes=()))

    def test_samplesize_rejects_empty_sizes(self):
        with pytest.raises(ConfigurationError):
            _series(ablation_samplesize_spec(sample_sizes=()))

    def test_marginals_rejects_empty_list(self):
        with pytest.raises(ConfigurationError):
            _series(ablation_marginals_spec(marginals=()))
