"""Property-based tests for randomization-scheme invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.defense import design_noise_spectrum
from repro.data.covariance_builder import CovarianceModel
from repro.data.spectra import two_level_spectrum
from repro.linalg.psd import is_positive_semidefinite
from repro.randomization.additive import AdditiveNoiseScheme
from repro.randomization.correlated import CorrelatedNoiseScheme


class TestAdditiveSchemeProperties:
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        std=st.floats(min_value=0.1, max_value=25.0),
        family=st.sampled_from(["gaussian", "uniform"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_disguise_is_exactly_additive(self, seed, std, family):
        rng = np.random.default_rng(seed)
        original = rng.normal(0.0, 10.0, size=(50, 4))
        dataset = AdditiveNoiseScheme(std=std, family=family).disguise(
            original, rng=seed
        )
        np.testing.assert_allclose(
            dataset.disguised, dataset.original + dataset.noise
        )
        np.testing.assert_array_equal(dataset.original, original)

    @given(
        std=st.floats(min_value=0.1, max_value=25.0),
        family=st.sampled_from(["gaussian", "uniform"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_marginal_density_variance_matches_scheme(self, std, family):
        scheme = AdditiveNoiseScheme(std=std, family=family)
        assert np.isclose(scheme.marginal_density().variance, std**2)

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        std=st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_noise_sample_energy_near_nominal(self, seed, std):
        scheme = AdditiveNoiseScheme(std=std)
        noise = scheme.sample_noise((4000, 3), rng=seed)
        assert np.isclose(np.mean(noise**2), std**2, rtol=0.15)


class TestCorrelatedSchemeProperties:
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        m=st.integers(min_value=2, max_value=10),
        power=st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_matched_noise_power_exact(self, seed, m, power):
        spectrum = two_level_spectrum(
            m, max(1, m // 3), total_variance=100.0 * m
        )
        cov = CovarianceModel.from_spectrum(spectrum, rng=seed).matrix
        scheme = CorrelatedNoiseScheme.matching_data_covariance(
            cov, noise_power=power
        )
        assert np.isclose(scheme.total_power, power)
        assert is_positive_semidefinite(scheme.covariance)


class TestDesignedSpectrumProperties:
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        m=st.integers(min_value=2, max_value=12),
        profile=st.floats(min_value=0.0, max_value=2.0),
        power=st.floats(min_value=0.5, max_value=1000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_designed_spectrum_invariants(self, seed, m, profile, power):
        rng = np.random.default_rng(seed)
        data_spectrum = np.sort(rng.uniform(0.1, 100.0, size=m))[::-1]
        designed = design_noise_spectrum(
            data_spectrum, noise_power=power, profile=profile
        )
        assert designed.shape == (m,)
        assert np.all(designed >= 0.0)
        assert np.isclose(designed.sum(), power, rtol=1e-9)
