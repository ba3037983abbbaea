"""Integration tests for the built-in ablation specs A2-A6 (docs/paper_map.md)."""

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


def _series(spec):
    return run_spec(spec).to_series()


class TestSelectionAblation:
    @pytest.fixture(scope="class")
    def series(self):
        return _series(
            ablation_selection_spec(n_attributes=30, n_records=800, seed=3)
        )

    def test_two_level_rules_agree(self, series):
        two_level = [series.curve(m)[0] for m in series.methods]
        assert max(two_level) - min(two_level) < 0.1
        # The paper's rule picks the right count when a gap exists.
        oracle = next(m for m in series.methods if m.startswith("oracle"))
        assert series.curve("largest-gap")[0] == pytest.approx(
            series.curve(oracle)[0], abs=0.05
        )

    def test_decaying_rules_diverge(self, series):
        decaying = [series.curve(m)[1] for m in series.methods]
        assert max(decaying) - min(decaying) > 0.05


class TestCovarianceAblation:
    @pytest.fixture(scope="class")
    def series(self):
        return _series(
            ablation_covariance_spec(
                sample_sizes=(100, 500, 2000),
                n_attributes=20,
                seed=5,
            )
        )

    def test_oracle_never_meaningfully_worse(self, series):
        for family in ("PCA", "BE"):
            estimated = series.curve(f"{family}-estimated")
            oracle = series.curve(f"{family}-oracle")
            assert np.all(oracle <= estimated + 0.2)

    def test_gap_closes_with_n(self, series):
        gap_small = (
            series.curve("BE-estimated")[0] - series.curve("BE-oracle")[0]
        )
        gap_large = (
            series.curve("BE-estimated")[-1] - series.curve("BE-oracle")[-1]
        )
        assert gap_large < gap_small

    def test_estimate_converges_to_oracle(self, series):
        """Theorem 5.1's estimate is consistent: at the largest n the
        oracle covariance buys almost nothing."""
        for family in ("PCA", "BE"):
            gap = (
                series.curve(f"{family}-estimated")[-1]
                - series.curve(f"{family}-oracle")[-1]
            )
            assert abs(gap) < 0.1, family


class TestSamplesizeAblation:
    @pytest.fixture(scope="class")
    def series(self):
        return _series(
            ablation_samplesize_spec(
                sample_sizes=(100, 500, 2000, 4000),
                n_attributes=25,
                seed=7,
            )
        )

    def test_attack_improves_then_saturates(self, series):
        be = series.curve("BE-DR")
        assert be[-1] < be[0]
        assert abs(be[-1] - be[-2]) < 0.15

    def test_bedr_never_meaningfully_worse_than_udr(self, series):
        """Even at n = 100 the correlation attack does not lose to UDR."""
        assert np.all(series.curve("BE-DR") <= series.curve("UDR") + 0.05)


class TestUtilityAblation:
    def test_corrected_training_tracks_oracle(self):
        series = _series(
            ablation_utility_spec(n_train=3000, n_test=1500, seed=1)
        )
        original = series.curve("original")
        corrected = series.curve("disguised_corrected")
        assert np.all(corrected >= original - 0.05)
        assert np.all(original > 0.85)


class TestMarginalsAblation:
    @pytest.fixture(scope="class")
    def series(self):
        return _series(
            ablation_marginals_spec(
                marginals=("normal", "lognormal", "bimodal"),
                n_attributes=20,
                n_records=1500,
                seed=13,
            )
        )

    def test_attack_still_beats_udr_on_normal(self, series):
        assert series.curve("BE-DR")[0] < series.curve("UDR")[0] - 0.5

    def test_bedr_survives_non_normal_marginals(self, series):
        """BE-DR's edge shrinks but persists under misspecification."""
        for index in range(series.x_values.size):
            assert (
                series.curve("BE-DR")[index]
                < series.curve("UDR")[index]
            ), series.metadata["marginals"][index]

    def test_misspecification_costs_accuracy(self, series):
        """Non-normal marginals must hurt relative to the normal case."""
        be = series.curve("BE-DR")
        assert min(be[1:]) > be[0]
