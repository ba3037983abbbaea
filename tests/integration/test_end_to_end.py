"""End-to-end flows across the public API.

These tests exercise the library the way the examples do: realistic data,
threat models, defense design, and utility checks, all through the
top-level ``repro`` namespace.
"""

import numpy as np
import pytest

import repro


class TestPublicApi:
    def test_quickstart_flow(self):
        """The README quickstart must work verbatim."""
        dataset = repro.generate_dataset(
            spectrum=repro.two_level_spectrum(20, 3, total_variance=2000.0),
            n_records=1000,
            rng=0,
        )
        scheme = repro.AdditiveNoiseScheme(std=5.0)
        disguised = scheme.disguise(dataset.values, rng=1)
        attack = repro.BayesEstimateReconstructor()
        result = attack.reconstruct(disguised)
        rmse = repro.root_mean_square_error(disguised.original, result)
        assert rmse < 5.0

    def test_all_documented_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestCensusScenario:
    """The motivating scenario: medical/census records with correlations."""

    @pytest.fixture(scope="class")
    def census_attack(self):
        generator = repro.CensusLikeGenerator()
        table = generator.sample(3000, rng=0)
        scheme = repro.AdditiveNoiseScheme(std=20.0)
        disguised = scheme.disguise(table.values, rng=1)
        return table, disguised

    def test_correlation_attacks_break_randomization(self, census_attack):
        table, disguised = census_attack
        ndr = repro.root_mean_square_error(
            table.values,
            repro.NoiseDistributionReconstructor().reconstruct(disguised),
        )
        be = repro.root_mean_square_error(
            table.values,
            repro.BayesEstimateReconstructor().reconstruct(disguised),
        )
        # The census table is low-rank: BE-DR should cut RMSE by >40%.
        assert be < 0.6 * ndr

    def test_leaked_attributes_amplify_disclosure(self, census_attack):
        table, disguised = census_attack
        leaked_indices = [0, 2]  # age and income leak
        leaked_values = table.values[:, leaked_indices]
        threat = repro.ThreatModel(
            leaked_attributes=tuple(leaked_indices),
            leaked_values=leaked_values,
        )
        attacks = threat.build_attacks()
        outcomes = repro.evaluate_attacks(disguised, attacks)
        assert (
            outcomes["BE-DR+leak"].rmse < outcomes["BE-DR"].rmse
        )


class TestDefenseScenario:
    """Publisher-side flow: design correlated noise, verify both sides."""

    def test_defense_raises_attack_error_but_keeps_utility(self):
        spectrum = repro.two_level_spectrum(
            16, 4, total_variance=1600.0, non_principal_value=4.0
        )
        dataset = repro.generate_dataset(
            spectrum=spectrum, n_records=2500, rng=3
        )
        power = 16 * 25.0

        designer = repro.NoiseDesigner(
            dataset.covariance_model, noise_power=power
        )
        matched = designer.design(0.0)
        independent = designer.design(1.0)

        attack = repro.BayesEstimateReconstructor()
        rmse_matched = repro.root_mean_square_error(
            dataset.values,
            attack.reconstruct(matched.scheme.disguise(dataset.values, rng=4)),
        )
        rmse_independent = repro.root_mean_square_error(
            dataset.values,
            attack.reconstruct(
                independent.scheme.disguise(dataset.values, rng=4)
            ),
        )
        # Privacy improved...
        assert rmse_matched > rmse_independent
        gain = rmse_matched / rmse_independent - 1.0
        assert gain > 0.10

        # ...and utility (the recoverable distribution, Theorem 8.2)
        # survived: the recovered covariance still matches the truth.
        disguised = matched.scheme.disguise(dataset.values, rng=5)
        from repro.linalg.covariance import covariance_from_disguised

        recovered = covariance_from_disguised(
            disguised.disguised, matched.scheme.covariance
        )
        truth = dataset.population_covariance
        correlation = np.corrcoef(recovered.ravel(), truth.ravel())[0, 1]
        assert correlation > 0.98

    def test_designed_dissimilarity_monotone_in_profile(self):
        model = repro.CovarianceModel.from_spectrum(
            repro.two_level_spectrum(12, 4, total_variance=1200.0), rng=6
        )
        designer = repro.NoiseDesigner(model, noise_power=300.0)
        values = [
            designer.design(t).dissimilarity
            for t in (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)
        ]
        assert values == sorted(values)


class TestSerialDependencyScenario:
    def test_wiener_attack_on_randomized_timeseries(self):
        generator = repro.VectorAutoregressiveGenerator(
            0.92, innovation_std=1.0, n_channels=3
        )
        series = generator.sample(3000, rng=7)
        scheme = repro.AdditiveNoiseScheme(std=2.0)
        disguised = scheme.disguise(series, rng=8)

        threat = repro.ThreatModel(
            exploits_correlations=False, exploits_serial_dependency=True
        )
        outcomes = repro.evaluate_attacks(
            disguised, threat.build_attacks()
        )
        assert outcomes["Wiener"].rmse < outcomes["NDR"].rmse * 0.75
        assert outcomes["Wiener"].rmse < outcomes["UDR"].rmse


class TestCrossAttackConsistency:
    def test_bedr_equals_udr_on_independent_data(self, weak_disguised):
        """Section 6: with independent attributes BE-DR converges to UDR."""
        be = repro.BayesEstimateReconstructor().reconstruct(weak_disguised)
        udr = repro.UnivariateReconstructor().reconstruct(weak_disguised)
        rmse_be = repro.root_mean_square_error(weak_disguised.original, be)
        rmse_udr = repro.root_mean_square_error(weak_disguised.original, udr)
        assert rmse_be == pytest.approx(rmse_udr, rel=0.05)

    def test_pca_full_rank_equals_ndr(self, weak_disguised):
        """Flat spectrum: largest-gap keeps everything, PCA-DR = NDR."""
        pca = repro.PCAReconstructor().reconstruct(weak_disguised)
        ndr = repro.NoiseDistributionReconstructor().reconstruct(
            weak_disguised
        )
        rmse_pca = repro.root_mean_square_error(
            weak_disguised.original, pca
        )
        rmse_ndr = repro.root_mean_square_error(
            weak_disguised.original, ndr
        )
        assert rmse_pca == pytest.approx(rmse_ndr, rel=0.05)
