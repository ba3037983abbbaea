"""Unit tests for UDR (Section 4.2)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.metrics.error import root_mean_square_error
from repro.randomization.additive import AdditiveNoiseScheme
from repro.reconstruction.ndr import NoiseDistributionReconstructor
from repro.reconstruction.udr import (
    UnivariateReconstructor,
    noise_marginal_density,
)
from repro.stats.density import GaussianDensity, UniformDensity

from tests.conftest import NOISE_STD


class TestNoiseMarginalDensity:
    def test_gaussian_marginal(self):
        model = AdditiveNoiseScheme(std=3.0).noise_model(2)
        density = noise_marginal_density(model, 0)
        assert isinstance(density, GaussianDensity)
        assert density.variance == pytest.approx(9.0)

    def test_uniform_marginal(self):
        model = AdditiveNoiseScheme(std=3.0, family="uniform").noise_model(2)
        density = noise_marginal_density(model, 1)
        assert isinstance(density, UniformDensity)
        assert density.variance == pytest.approx(9.0)

    def test_rejects_zero_variance(self):
        from repro.randomization.base import NoiseModel

        model = NoiseModel(covariance=np.diag([1.0, 0.0]), mean=np.zeros(2))
        with pytest.raises(ValidationError):
            noise_marginal_density(model, 1)


class TestGaussianPrior:
    def test_exact_shrinkage_for_gaussian_data(self):
        """For N(mu, s^2) data the posterior mean is linear shrinkage."""
        rng = np.random.default_rng(0)
        prior_var = 75.0
        original = rng.normal(10.0, np.sqrt(prior_var), size=(50000, 1))
        disguised = AdditiveNoiseScheme(std=NOISE_STD).disguise(
            original, rng=1
        )
        result = UnivariateReconstructor().reconstruct(disguised)
        y = disguised.disguised[:, 0]
        sample_shrinkage = (y.var() - NOISE_STD**2) / y.var()
        expected = y.mean() + sample_shrinkage * (y - y.mean())
        np.testing.assert_allclose(result.estimate[:, 0], expected, atol=1e-6)

    def test_beats_ndr(self, disguised_dataset):
        original = disguised_dataset.original
        udr = root_mean_square_error(
            original, UnivariateReconstructor().reconstruct(disguised_dataset)
        )
        ndr = root_mean_square_error(
            original,
            NoiseDistributionReconstructor().reconstruct(disguised_dataset),
        )
        assert udr < ndr

    def test_rmse_matches_theory(self):
        """Gaussian prior+noise: posterior std = sqrt(s^2 sigma^2/(s^2+sigma^2))."""
        rng = np.random.default_rng(2)
        prior_var = 100.0
        original = rng.normal(0.0, 10.0, size=(80000, 1))
        disguised = AdditiveNoiseScheme(std=NOISE_STD).disguise(
            original, rng=3
        )
        result = UnivariateReconstructor().reconstruct(disguised)
        rmse = root_mean_square_error(original, result)
        theory = np.sqrt(
            prior_var * NOISE_STD**2 / (prior_var + NOISE_STD**2)
        )
        assert rmse == pytest.approx(theory, rel=0.02)

    def test_pure_noise_column_collapses_to_mean(self):
        """A column whose variance is all noise reconstructs as the mean."""
        original = np.zeros((5000, 1))
        disguised = AdditiveNoiseScheme(std=NOISE_STD).disguise(
            original, rng=4
        )
        result = UnivariateReconstructor().reconstruct(disguised)
        spread = result.estimate[:, 0].std()
        assert spread < 0.5  # nearly constant



def _per_column_reference(disguised, noise_model):
    """The per-attribute loop the vectorized Gaussian-prior path replaced."""
    estimate = np.empty_like(disguised)
    for j in range(disguised.shape[1]):
        column = disguised[:, j]
        noise = noise_marginal_density(noise_model, j)
        mean_y = float(column.mean())
        var_y = float(column.var())
        prior_var = max(var_y - noise.variance, 0.0)
        prior_mean = mean_y - noise.mean
        if prior_var == 0.0:  # repro: ignore[float-eq] degenerate guard
            estimate[:, j] = prior_mean
            continue
        shrinkage = prior_var / (prior_var + noise.variance)
        estimate[:, j] = prior_mean + shrinkage * (column - noise.mean - prior_mean)
    return estimate


class TestVectorizedGaussianPrior:
    """The all-columns Gaussian-prior path equals the per-column loop bit for bit."""

    @staticmethod
    def _table(n, m, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, m)) * rng.uniform(0.5, 4.0, m) + rng.normal(
            0.0, 3.0, m
        )

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    @pytest.mark.parametrize("n", [257, 10_000])
    def test_matches_per_column_reference(self, family, n):
        from repro.randomization.base import NoiseModel

        m = 9
        rng = np.random.default_rng(n)
        # Heterogeneous diagonal Sigma_r and a non-zero noise mean.
        model = NoiseModel(
            covariance=np.diag(rng.uniform(0.2, 3.0, m)),
            mean=rng.normal(0.0, 0.3, m),
            family=family,
        )
        disguised = self._table(n, m, seed=n + 1)
        result = UnivariateReconstructor().reconstruct(disguised, model)
        np.testing.assert_array_equal(
            result.estimate, _per_column_reference(disguised, model)
        )

    def test_degenerate_column_collapses_to_prior_mean(self):
        from repro.randomization.base import NoiseModel

        disguised = self._table(500, 3, seed=8)
        disguised[:, 1] = 0.25 * disguised[:, 1] + 1.0  # variance below noise
        model = NoiseModel(
            covariance=np.diag([0.5, 100.0, 0.5]), mean=np.zeros(3)
        )
        result = UnivariateReconstructor().reconstruct(disguised, model)
        reference = _per_column_reference(disguised, model)
        np.testing.assert_array_equal(result.estimate, reference)
        assert np.all(result.estimate[:, 1] == disguised[:, 1].mean())

    def test_non_positive_noise_variance_names_the_attribute(self):
        from repro.randomization.base import NoiseModel

        model = NoiseModel(
            covariance=np.diag([1.0, 1.0, -0.0, 0.0]), mean=np.zeros(4)
        )
        with pytest.raises(ValidationError, match="attribute 2 "):
            UnivariateReconstructor().reconstruct(self._table(50, 4, 9), model)

class TestReconstructedPrior:
    def test_non_gaussian_data_beats_gaussian_prior(self):
        """Bimodal data: the AS-reconstructed prior beats moment matching."""
        rng = np.random.default_rng(5)
        original = np.concatenate(
            [rng.normal(-15.0, 1.0, 3000), rng.normal(15.0, 1.0, 3000)]
        ).reshape(-1, 1)
        disguised = AdditiveNoiseScheme(std=NOISE_STD).disguise(
            original, rng=6
        )
        gaussian = UnivariateReconstructor(prior="gaussian").reconstruct(
            disguised
        )
        reconstructed = UnivariateReconstructor(
            prior="reconstructed", n_bins=80
        ).reconstruct(disguised)
        rmse_gaussian = root_mean_square_error(original, gaussian)
        rmse_reconstructed = root_mean_square_error(original, reconstructed)
        assert rmse_reconstructed < rmse_gaussian

    def test_explicit_prior_densities(self):
        rng = np.random.default_rng(7)
        original = rng.normal(0.0, 8.0, size=(2000, 2))
        disguised = AdditiveNoiseScheme(std=NOISE_STD).disguise(
            original, rng=8
        )
        priors = [GaussianDensity(0.0, 8.0), GaussianDensity(0.0, 8.0)]
        result = UnivariateReconstructor(prior=priors).reconstruct(disguised)
        # Grid-based posterior mean with the true prior must track the
        # closed-form shrinkage closely.
        shrinkage = 64.0 / (64.0 + 25.0)
        expected = shrinkage * disguised.disguised
        np.testing.assert_allclose(
            result.estimate, expected, atol=0.4
        )

    def test_explicit_prior_count_checked(self, disguised_dataset):
        with pytest.raises(ValidationError, match="explicit priors"):
            UnivariateReconstructor(
                prior=[GaussianDensity(0.0, 1.0)]
            ).reconstruct(disguised_dataset)


class TestValidation:
    def test_unknown_prior_mode_rejected(self):
        with pytest.raises(ValidationError, match="prior must be"):
            UnivariateReconstructor(prior="parametric")

    def test_non_density_sequence_rejected(self):
        with pytest.raises(ValidationError):
            UnivariateReconstructor(prior=[1.0, 2.0])

    def test_grid_size_validated(self):
        with pytest.raises(ValidationError):
            UnivariateReconstructor(n_grid=4)

    def test_method_name(self, disguised_dataset):
        result = UnivariateReconstructor().reconstruct(disguised_dataset)
        assert result.method == "UDR"
