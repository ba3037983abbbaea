"""Unit tests for repro.api.config."""

import numpy as np
import pytest

from repro.api.config import ExperimentSeries, SweepConfig
from repro.exceptions import ConfigurationError, ValidationError


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig()
        assert config.n_records == 2000
        assert config.noise_std == 5.0
        assert config.n_trials == 1

    def test_trace_for(self):
        config = SweepConfig(variance_per_attribute=100.0)
        assert config.trace_for(40) == pytest.approx(4000.0)

    def test_rejects_bad_records(self):
        with pytest.raises(ValidationError):
            SweepConfig(n_records=1)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValidationError):
            SweepConfig(noise_std=0.0)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValidationError):
            SweepConfig(n_trials=0)

    def test_frozen(self):
        config = SweepConfig()
        with pytest.raises(AttributeError):
            config.n_records = 5


class TestExperimentSeries:
    def _series(self):
        return ExperimentSeries(
            name="demo",
            x_label="m",
            x_values=[1.0, 2.0, 3.0],
            series={
                "UDR": [4.0, 4.0, 4.0],
                "BE-DR": [3.0, 2.0, 1.0],
            },
        )

    def test_methods_in_order(self):
        assert self._series().methods == ["UDR", "BE-DR"]

    def test_curve_lookup(self):
        np.testing.assert_allclose(
            self._series().curve("BE-DR"), [3.0, 2.0, 1.0]
        )

    def test_curve_unknown_raises(self):
        with pytest.raises(KeyError, match="available"):
            self._series().curve("SF")

    def test_final_gap(self):
        assert self._series().final_gap("BE-DR", "UDR") == pytest.approx(3.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="shape"):
            ExperimentSeries(
                name="bad",
                x_label="m",
                x_values=[1.0, 2.0],
                series={"UDR": [1.0, 2.0, 3.0]},
            )

    def test_arrays_coerced_to_float(self):
        series = ExperimentSeries(
            name="ints",
            x_label="m",
            x_values=[1, 2],
            series={"UDR": [1, 2]},
        )
        assert series.x_values.dtype == np.float64
        assert series.series["UDR"].dtype == np.float64


def test_top_level_api_attribute():
    import repro

    assert repro.api.SweepConfig is SweepConfig
    assert repro.api.ExperimentSeries is ExperimentSeries
