"""Integration tests for the built-in figure specs' mechanics.

Shape-level claims live in test_paper_claims; these tests cover what
the specs pin through ``run_spec``: determinism, trial averaging,
metadata, and validation.
"""

import numpy as np
import pytest

from repro.api import run_spec
from repro.api.builtin import (
    figure1_spec,
    figure2_spec,
    figure3_spec,
    figure4_spec,
    theorem52_spec,
)
from repro.api.config import SweepConfig
from repro.exceptions import ConfigurationError

TINY = SweepConfig(n_records=300, seed=7)


def _series(spec):
    return run_spec(spec).to_series()


class TestRunnerMechanics:
    def test_experiment1_deterministic(self):
        a = _series(figure1_spec(TINY, attribute_counts=[5, 20]))
        b = _series(figure1_spec(TINY, attribute_counts=[5, 20]))
        for method in a.methods:
            np.testing.assert_array_equal(
                a.curve(method), b.curve(method)
            )

    def test_adding_sweep_points_preserves_existing(self):
        """Spawned per-point RNGs: extending the sweep must not change
        earlier points."""
        short = _series(figure1_spec(TINY, attribute_counts=[5, 20]))
        long = _series(figure1_spec(TINY, attribute_counts=[5, 20, 40]))
        for method in short.methods:
            np.testing.assert_array_equal(
                short.curve(method), long.curve(method)[:2]
            )

    def test_trial_averaging_mechanics(self):
        one_trial = SweepConfig(n_records=300, n_trials=1, seed=1)
        three_trials = SweepConfig(n_records=300, n_trials=3, seed=1)
        single = _series(figure2_spec(one_trial, principal_counts=[30, 50]))
        averaged = _series(
            figure2_spec(three_trials, principal_counts=[30, 50])
        )
        # Averaging actually happened (different trials were drawn)...
        assert not np.array_equal(
            single.curve("UDR"), averaged.curve("UDR")
        )
        # ...deterministically.
        again = _series(figure2_spec(three_trials, principal_counts=[30, 50]))
        for method in averaged.methods:
            np.testing.assert_array_equal(
                averaged.curve(method), again.curve(method)
            )
        # And the averaged values stay in the plausible band around the
        # single-trial values (same distribution, same scale).
        assert np.all(np.abs(averaged.curve("UDR") - single.curve("UDR")) < 1.0)

    def test_series_metadata_complete(self):
        series = _series(figure1_spec(TINY, attribute_counts=[5, 10]))
        assert series.metadata["n_records"] == 300
        assert series.metadata["n_principal"] == 5
        assert series.name == "figure1"

    def test_experiment4_dissimilarity_axis_monotone(self):
        series = _series(
            figure4_spec(
                TINY, profiles=[0.0, 1.0, 2.0], n_attributes=20, n_principal=10
            )
        )
        x = series.x_values
        assert np.all(np.diff(x) > -1e-12)
        assert "independent_noise_profile" in series.metadata


class TestRunnerValidation:
    def test_experiment1_rejects_m_below_p(self):
        with pytest.raises(ConfigurationError):
            run_spec(
                figure1_spec(TINY, attribute_counts=[3, 10], n_principal=5)
            )

    def test_experiment2_rejects_bad_p(self):
        with pytest.raises(ConfigurationError):
            run_spec(figure2_spec(TINY, principal_counts=[0, 10]))

    def test_experiment3_rejects_eigenvalue_above_principal(self):
        with pytest.raises(ConfigurationError):
            run_spec(
                figure3_spec(TINY, eigenvalues=[500.0], principal_value=400.0)
            )

    def test_theorem52_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            run_spec(theorem52_spec(n_attributes=10, component_counts=(0,)))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            run_spec(figure1_spec(TINY, attribute_counts=[]))
