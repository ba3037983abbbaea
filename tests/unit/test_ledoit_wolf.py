"""Unit tests for the Ledoit-Wolf shrinkage covariance estimator."""

import numpy as np
import pytest

from repro.data.covariance_builder import CovarianceModel
from repro.data.spectra import decaying_spectrum, two_level_spectrum
from repro.exceptions import ValidationError
from repro.linalg.covariance import (
    covariance_from_disguised,
    ledoit_wolf_covariance,
    sample_covariance,
)
from repro.linalg.psd import is_positive_semidefinite
from repro.stats.mvn import MultivariateNormal


def _draw(n, m=10, seed=0):
    model = CovarianceModel.from_spectrum(
        decaying_spectrum(m, decay=0.8, total_variance=10.0 * m), rng=seed
    )
    dist = MultivariateNormal(np.zeros(m), model.matrix)
    return dist.sample(n, rng=seed + 1), model.matrix


class TestLedoitWolf:
    def test_shrinkage_in_unit_interval(self):
        data, _ = _draw(50)
        _, shrinkage = ledoit_wolf_covariance(data)
        assert 0.0 <= shrinkage <= 1.0

    def test_result_is_psd(self):
        data, _ = _draw(15)  # fewer rows than a well-determined estimate
        estimate, _ = ledoit_wolf_covariance(data)
        assert is_positive_semidefinite(estimate)

    def test_shrinkage_vanishes_with_large_n(self):
        small_data, _ = _draw(30, seed=2)
        large_data, _ = _draw(20000, seed=2)
        _, shrink_small = ledoit_wolf_covariance(small_data)
        _, shrink_large = ledoit_wolf_covariance(large_data)
        assert shrink_large < shrink_small
        assert shrink_large < 0.02

    def test_converges_to_sample_covariance(self):
        data, _ = _draw(20000, seed=3)
        estimate, _ = ledoit_wolf_covariance(data)
        np.testing.assert_allclose(
            estimate, sample_covariance(data), rtol=0.02, atol=0.05
        )

    def test_beats_sample_estimate_at_small_n(self):
        """Frobenius risk: shrinkage wins when n is small vs m."""
        wins = 0
        for seed in range(10):
            data, truth = _draw(18, m=12, seed=seed)
            lw, _ = ledoit_wolf_covariance(data)
            raw = sample_covariance(data)
            if np.linalg.norm(lw - truth) < np.linalg.norm(raw - truth):
                wins += 1
        assert wins >= 8

    def test_spherical_data_fully_shrunk(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((40, 8))
        estimate, shrinkage = ledoit_wolf_covariance(data)
        # Identity-covariance data: heavy shrinkage toward mu * I.
        assert shrinkage > 0.3
        off = estimate - np.diag(np.diag(estimate))
        assert np.abs(off).max() < np.abs(np.diag(estimate)).max()

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            ledoit_wolf_covariance(np.ones((1, 3)))


class TestEstimatorOption:
    def test_covariance_from_disguised_accepts_both(self):
        data, _ = _draw(100, seed=5)
        disguised = data + np.random.default_rng(6).normal(
            0.0, 2.0, size=data.shape
        )
        for estimator in ("sample", "ledoit-wolf"):
            estimate = covariance_from_disguised(
                disguised, 4.0, estimator=estimator
            )
            assert estimate.shape == (10, 10)

    def test_unknown_estimator_rejected(self):
        data, _ = _draw(100, seed=7)
        with pytest.raises(ValidationError, match="estimator"):
            covariance_from_disguised(data, 1.0, estimator="oas")

    def test_attack_constructor_validates_estimator(self):
        from repro.reconstruction.bedr import BayesEstimateReconstructor
        from repro.reconstruction.pca_dr import PCAReconstructor

        with pytest.raises(ValidationError):
            BayesEstimateReconstructor(covariance_estimator="bad")
        with pytest.raises(ValidationError):
            PCAReconstructor(covariance_estimator="bad")

    def test_shrinkage_helps_bedr_on_smooth_spectrum(self):
        """The A7 finding: LW wins at small n when the spectrum decays
        smoothly (no clean spikes for clipping to exploit)."""
        from repro.data.synthetic import generate_dataset
        from repro.metrics.error import root_mean_square_error
        from repro.randomization.additive import AdditiveNoiseScheme
        from repro.reconstruction.bedr import BayesEstimateReconstructor

        gains = []
        for seed in range(4):
            dataset = generate_dataset(
                spectrum=decaying_spectrum(
                    40, decay=0.93, total_variance=4000.0
                ),
                n_records=45,
                rng=seed,
            )
            disguised = AdditiveNoiseScheme(std=5.0).disguise(
                dataset.values, rng=seed + 10
            )
            rmse = {}
            for estimator in ("sample", "ledoit-wolf"):
                attack = BayesEstimateReconstructor(
                    covariance_estimator=estimator
                )
                rmse[estimator] = root_mean_square_error(
                    dataset.values, attack.reconstruct(disguised)
                )
            gains.append(rmse["sample"] - rmse["ledoit-wolf"])
        assert np.mean(gains) > 0.0

    def test_shrinkage_never_meaningfully_helps_on_spiked_spectrum(self):
        """The other side of A7: on a two-level spectrum clipping already
        regularizes, and shrinkage biases the spikes down, so Ledoit-Wolf
        BE-DR never beats the Theorem 5.1 estimate by more than 0.05;
        the choice washes out at large n."""
        from repro.data.synthetic import generate_dataset
        from repro.metrics.error import root_mean_square_error
        from repro.randomization.additive import AdditiveNoiseScheme
        from repro.reconstruction.bedr import BayesEstimateReconstructor

        spectrum = two_level_spectrum(
            40, 5, total_variance=4000.0, non_principal_value=4.0
        )
        scheme = AdditiveNoiseScheme(std=5.0)
        attacks = {
            estimator: BayesEstimateReconstructor(
                covariance_estimator=estimator
            )
            for estimator in ("sample", "ledoit-wolf")
        }
        gaps = []
        for index, n in enumerate((45, 90, 180, 500, 2000)):
            rmse = dict.fromkeys(attacks, 0.0)
            for trial in range(3):
                dataset = generate_dataset(
                    spectrum=spectrum, n_records=n, rng=1000 * index + trial
                )
                disguised = scheme.disguise(
                    dataset.values, rng=2000 * index + trial
                )
                for estimator, attack in attacks.items():
                    rmse[estimator] += root_mean_square_error(
                        dataset.values, attack.reconstruct(disguised)
                    ) / 3
            gaps.append(rmse["ledoit-wolf"] - rmse["sample"])
        assert np.all(np.asarray(gaps) >= -0.05), gaps
        assert abs(gaps[-1]) < 0.1
