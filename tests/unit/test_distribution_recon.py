"""Unit tests for the Agrawal-Srikant distribution reconstruction."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ReproError, ValidationError
from repro.randomization.distribution_recon import (
    reconstruct_distribution,
    reconstruction_sweep,
)
from repro.stats.density import GaussianDensity, HistogramDensity, UniformDensity


def _disguise(original, sigma, seed):
    rng = np.random.default_rng(seed)
    return original + rng.normal(0.0, sigma, size=original.shape)


class TestReconstructDistribution:
    def test_recovers_bimodal_shape(self):
        # Classic Agrawal-Srikant demo: a mixture is recoverable from
        # heavily noised samples even though the disguised histogram is
        # unimodal mush.
        rng = np.random.default_rng(0)
        original = np.concatenate(
            [rng.normal(-10.0, 1.0, 4000), rng.normal(10.0, 1.0, 4000)]
        )
        disguised = _disguise(original, sigma=5.0, seed=1)
        noise = GaussianDensity(0.0, 5.0)
        estimate = reconstruct_distribution(disguised, noise, n_bins=80)
        # Mass near the true modes should dominate mass near zero.
        mode_mass = estimate.probabilities[
            (np.abs(estimate.centers + 10.0) < 3.0)
            | (np.abs(estimate.centers - 10.0) < 3.0)
        ].sum()
        center_mass = estimate.probabilities[
            np.abs(estimate.centers) < 3.0
        ].sum()
        assert mode_mass > 0.6
        assert center_mass < 0.15

    def test_recovers_moments_of_gaussian(self):
        rng = np.random.default_rng(2)
        original = rng.normal(3.0, 2.0, 6000)
        disguised = _disguise(original, sigma=4.0, seed=3)
        estimate = reconstruct_distribution(
            disguised, GaussianDensity(0.0, 4.0), n_bins=60
        )
        assert estimate.mean == pytest.approx(3.0, abs=0.3)
        assert np.sqrt(estimate.variance) == pytest.approx(2.0, abs=0.6)

    def test_returns_histogram_density(self):
        rng = np.random.default_rng(4)
        disguised = _disguise(rng.normal(0.0, 1.0, 500), 1.0, 5)
        estimate = reconstruct_distribution(
            disguised, GaussianDensity(0.0, 1.0), n_bins=32
        )
        assert isinstance(estimate, HistogramDensity)
        assert estimate.probabilities.sum() == pytest.approx(1.0)

    def test_uniform_noise_supported(self):
        rng = np.random.default_rng(6)
        original = rng.normal(0.0, 3.0, 4000)
        noise_density = UniformDensity(-4.0, 4.0)
        disguised = original + rng.uniform(-4.0, 4.0, 4000)
        estimate = reconstruct_distribution(
            disguised, noise_density, n_bins=48
        )
        assert estimate.mean == pytest.approx(0.0, abs=0.3)

    def test_explicit_support(self):
        rng = np.random.default_rng(7)
        disguised = _disguise(rng.normal(0.0, 1.0, 800), 1.0, 8)
        estimate = reconstruct_distribution(
            disguised,
            GaussianDensity(0.0, 1.0),
            support=(-6.0, 6.0),
            n_bins=24,
        )
        lo, hi = estimate.support()
        assert lo == -6.0 and hi == 6.0

    def test_rejects_inverted_support(self):
        with pytest.raises(ValidationError):
            reconstruct_distribution(
                np.zeros(10) + np.arange(10),
                GaussianDensity(0.0, 1.0),
                support=(5.0, -5.0),
            )

    def test_convergence_error_on_tiny_budget(self):
        rng = np.random.default_rng(9)
        disguised = _disguise(rng.normal(0.0, 5.0, 2000), 2.0, 10)
        with pytest.raises(ConvergenceError):
            reconstruct_distribution(
                disguised,
                GaussianDensity(0.0, 2.0),
                max_iter=1,
                tol=1e-300,
            )

    def test_rejects_bad_tol(self):
        with pytest.raises(ValidationError):
            reconstruct_distribution(
                np.arange(10.0), GaussianDensity(0.0, 1.0), tol=0.0
            )


class TestReconstructionSweep:
    def test_sweep_preserves_total_mass(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0.0, 2.0, 500)
        edges = np.linspace(-8, 8, 33)
        probs = np.full(32, 1.0 / 32)
        updated = reconstruction_sweep(
            samples, GaussianDensity(0.0, 1.0), edges, probs
        )
        assert updated.sum() == pytest.approx(1.0)
        assert np.all(updated >= 0.0)

    def test_sweep_is_em_ascent(self):
        # Each sweep must not decrease the disguised-sample likelihood.
        rng = np.random.default_rng(12)
        original = np.concatenate(
            [rng.normal(-3.0, 0.5, 600), rng.normal(3.0, 0.5, 600)]
        )
        samples = _disguise(original, 1.5, 13)
        noise = GaussianDensity(0.0, 1.5)
        edges = np.linspace(-8, 8, 41)
        centers = (edges[:-1] + edges[1:]) / 2
        probs = np.full(40, 1.0 / 40)

        def log_likelihood(p):
            kernel = noise.pdf(samples[:, None] - centers[None, :])
            mix = kernel @ p
            return float(np.sum(np.log(np.maximum(mix, 1e-300))))

        previous = log_likelihood(probs)
        for _ in range(10):
            probs = reconstruction_sweep(samples, noise, edges, probs)
            current = log_likelihood(probs)
            assert current >= previous - 1e-8
            previous = current

    def test_all_zero_likelihood_raises(self):
        # Grid entirely away from the data: every sample unexplained.
        samples = np.full(10, 100.0)
        edges = np.linspace(-1, 1, 5)
        probs = np.full(4, 0.25)
        with pytest.raises(ConvergenceError, match="support grid"):
            reconstruction_sweep(
                samples, GaussianDensity(0.0, 0.1), edges, probs
            )


class TestConvergenceError:
    def test_exhausted_budget_reports_its_iterations(self):
        rng = np.random.default_rng(9)
        disguised = _disguise(rng.normal(0.0, 5.0, 500), 2.0, 10)
        with pytest.raises(ConvergenceError) as caught:
            reconstruct_distribution(
                disguised, GaussianDensity(0.0, 2.0), max_iter=3, tol=1e-300
            )
        assert caught.value.iterations == 3
        assert str(caught.value) == (
            "distribution reconstruction did not converge "
            "(after 3 iterations)"
        )

    def test_message_stands_alone_without_iterations(self):
        error = ConvergenceError("gave up")
        assert error.iterations is None
        assert str(error) == "gave up"

    def test_is_a_runtime_error_of_the_library(self):
        error = ConvergenceError("gave up", 2)
        assert isinstance(error, RuntimeError)
        assert isinstance(error, ReproError)
