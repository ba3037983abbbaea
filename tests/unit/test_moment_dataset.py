"""Table-less datasets: the sufficient statistics stand in for the tables.

:meth:`DisguisedDataset.from_moments` keeps only the joint mean and
scatter of ``(X, R)``; :func:`sample_moments` draws those from their
exact Gaussian law.  These tests pin that moments taken from real tables
give the table dataset's statistics and scores, that the draw has the
law it claims in both of its branches, and that anything needing a
table raises instead of falling back.
"""

import pickle

import numpy as np
import pytest

from repro.core.pipeline import PipelineReport, evaluate_attacks
from repro.data.covariance_builder import CovarianceModel
from repro.data.synthetic import sample_moments
from repro.exceptions import ValidationError
from repro.metrics import oracle
from repro.metrics.error import per_attribute_rmse, root_mean_square_error
from repro.randomization.additive import AdditiveNoiseScheme
from repro.randomization.base import DisguisedDataset
from repro.reconstruction import (
    BayesEstimateReconstructor,
    NoiseDistributionReconstructor,
    PCAReconstructor,
    SpectralFilteringReconstructor,
    UnivariateReconstructor,
)
from repro.reconstruction.base import AffineMap, ReconstructionResult

from tests.unit.test_affine_results import _near_identity_dataset
from tests.unit.test_shared_statistics import DATASETS


def _attacks():
    return {
        "UDR": UnivariateReconstructor(),
        "SF": SpectralFilteringReconstructor(),
        "PCA-DR": PCAReconstructor(),
        "BE-DR": BayesEstimateReconstructor(),
    }


def _moments_of(dataset):
    """The table-less twin of a table dataset, from its own tables."""
    joint = np.hstack([dataset.original, dataset.noise])
    mean = joint.mean(axis=0)
    centred = joint - mean
    return DisguisedDataset.from_moments(
        dataset.n_records, mean, centred.T @ centred, dataset.noise_model
    )


def _small_moments(seed=0, n=400):
    rng = np.random.default_rng(seed)
    model = CovarianceModel.from_spectrum([40.0, 10.0, 2.0], rng)
    noise_model = AdditiveNoiseScheme(2.0).noise_model(3)
    return sample_moments(n, model.root, 2.0 * np.eye(3), noise_model, rng)


@pytest.fixture(params=sorted(DATASETS))
def pair(request):
    dataset = DATASETS[request.param]()
    return dataset, _moments_of(dataset)


class TestMomentsOfRealTables:
    def test_statistics_and_gram_match_the_tables(self, pair):
        table, moments = pair
        assert (moments.n_records, moments.n_attributes) == (
            table.n_records,
            table.n_attributes,
        )
        for name in ("column_means", "covariance"):
            np.testing.assert_allclose(
                getattr(moments.statistics, name),
                getattr(table.statistics, name),
                rtol=1e-10,
                atol=1e-9,
            )
        for name in ("mean", "sq_norms", "cross"):
            np.testing.assert_allclose(
                getattr(moments.reference_gram, name),
                getattr(table.reference_gram, name),
                rtol=1e-10,
                atol=1e-7,
            )

    def test_scores_match_the_tables(self, pair):
        table, moments = pair
        expected = evaluate_attacks(table, _attacks())
        for name, outcome in evaluate_attacks(moments, _attacks()).items():
            assert outcome.rmse == pytest.approx(expected[name].rmse, rel=1e-9)
            np.testing.assert_allclose(
                outcome.attribute_rmse, expected[name].attribute_rmse, rtol=1e-8
            )

    def test_rejects_mismatched_shapes(self, pair):
        table, _ = pair
        m = table.n_attributes
        with pytest.raises(ValidationError, match="joint moments"):
            DisguisedDataset.from_moments(
                table.n_records, np.zeros(m), np.eye(2 * m), table.noise_model
            )


class TestSampleMoments:
    @pytest.mark.parametrize("n", [400, 5], ids=["bartlett", "gram"])
    def test_covariance_is_psd(self, n):
        dataset = _small_moments(n=n)
        covariance = dataset.statistics.covariance
        assert covariance.shape == (3, 3)
        values = np.linalg.eigvalsh(covariance)
        assert values.min() > -1e-9 * values.max()

    @pytest.mark.parametrize("n", [50, 4], ids=["bartlett", "gram"])
    def test_law_of_the_moments(self, n):
        """Averages over draws, within 5 standard errors of the Wishart
        entry variances: ``E[Cov(Y)] = Sigma_x + Sigma_r`` and
        ``E[Xc^T Yc] / (n - 1) = Sigma_x``; and ``n Cov(x_bar) = Sigma_x``."""
        draws = 4000
        rng = np.random.default_rng(7)
        model = CovarianceModel.from_spectrum([40.0, 10.0, 2.0], rng)
        noise_model = AdditiveNoiseScheme(2.0).noise_model(3)
        sigma_x, sigma_r = model.matrix, noise_model.covariance
        datasets = [
            sample_moments(n, model.root, 2.0 * np.eye(3), noise_model, rng)
            for _ in range(draws)
        ]
        _, variance = oracle.covariance_estimate_moments(sigma_x, sigma_r, n)
        bound = 5.0 * np.sqrt(variance / draws)
        covariance = np.mean([d.statistics.covariance for d in datasets], axis=0)
        assert np.all(np.abs(covariance - sigma_x - sigma_r) <= bound)
        cross = np.mean([d.reference_gram.cross for d in datasets], axis=0)
        assert np.all(np.abs(cross / (n - 1) - sigma_x) <= bound)
        means = np.array([d.reference_gram.mean for d in datasets])
        np.testing.assert_allclose(
            n * np.cov(means.T), sigma_x, atol=0.1 * np.trace(sigma_x)
        )

    def test_rng_order_is_the_seed_lineage(self):
        assert _small_moments(seed=3) == _small_moments(seed=3)
        assert _small_moments(seed=3) != _small_moments(seed=4)

    def test_rejects_roots_of_the_wrong_size(self):
        noise_model = AdditiveNoiseScheme(1.0).noise_model(3)
        with pytest.raises(ValidationError, match="roots"):
            sample_moments(10, np.eye(2), np.eye(3), noise_model, 0)
        with pytest.raises(ValidationError, match="n_records"):
            sample_moments(1, np.eye(3), np.eye(3), noise_model, 0)


class TestNothingNeedsATable:
    def test_affine_results_score_in_closed_form(self):
        dataset = _small_moments()
        outcomes = evaluate_attacks(dataset, _attacks())
        assert all(np.isfinite(o.rmse) for o in outcomes.values())

    def test_building_an_estimate_raises(self):
        dataset = _small_moments()
        result = PCAReconstructor().reconstruct(dataset)
        assert (result.n_records, result.n_attributes) == (400, 3)
        with pytest.raises(ValidationError, match="not held"):
            result.estimate
        with pytest.raises(ValidationError, match="not held"):
            result.affine.apply()

    @pytest.mark.parametrize(
        "attack",
        [
            UnivariateReconstructor(prior="reconstructed"),
            NoiseDistributionReconstructor(),
            PCAReconstructor(covariance_estimator="ledoit-wolf"),
        ],
        ids=["udr-reconstructed-prior", "ndr", "ledoit-wolf"],
    )
    def test_attacks_that_read_the_table_raise(self, attack):
        with pytest.raises(ValidationError, match="not held"):
            attack.reconstruct(_small_moments())

    def test_scoring_a_non_affine_result_raises(self):
        dataset = _small_moments()
        result = ReconstructionResult(np.zeros((400, 3)), "zeros")
        with pytest.raises(ValidationError, match="moments"):
            root_mean_square_error(dataset, result)
        with pytest.raises(ValidationError, match="moments"):
            per_attribute_rmse(dataset, result)

    def test_the_cancellation_guard_raises_instead_of_falling_back(self):
        """A near-exact reconstruction, which the table form would score
        from its residual (``tests/unit/test_affine_results.py``)."""
        table, result = _near_identity_dataset()
        moments = _moments_of(table)
        affine = result.affine
        twin = ReconstructionResult(
            method=result.method,
            affine=AffineMap(
                moments.statistics, affine.weights, affine.offset, affine.center
            ),
        )
        with pytest.raises(ValidationError, match="guard"):
            root_mean_square_error(moments, twin)

    def test_report_dict_needs_include_dataset_false(self):
        dataset = _small_moments()
        report = PipelineReport(
            outcomes=evaluate_attacks(dataset, _attacks()), dataset=dataset
        )
        with pytest.raises(ValidationError, match="include_dataset=False"):
            report.to_dict()
        payload = report.to_dict(include_dataset=False, include_estimates=False)
        assert payload["dataset"] is None

    def test_equality_and_pickle(self):
        dataset = _small_moments()
        restored = pickle.loads(pickle.dumps(dataset))
        assert restored == dataset
        assert restored.statistics.n_records == 400
        assert restored != _small_moments(seed=1)
        assert restored != DATASETS["iid"]()
