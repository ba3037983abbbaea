"""Affine reconstruction results: the lazy estimate and closed-form scoring.

UDR (Gaussian prior), SF, PCA-DR and BE-DR return an
:class:`~repro.reconstruction.base.AffineMap` instead of an ``(n, m)``
estimate.  These tests pin the contract of the lazily built estimate —
every check starts from a fresh result whose ``.estimate`` was never
read — and the closed-form scorer's guard and dispatch rules.
"""

import pickle

import numpy as np
import pytest

from repro.core.pipeline import AttackOutcome, PipelineReport, evaluate_attacks
from repro.exceptions import ValidationError
from repro.metrics.error import (
    mean_square_error,
    per_attribute_rmse,
    root_mean_square_error,
)
from repro.randomization.base import DisguisedDataset, NoiseModel
from repro.reconstruction import (
    BayesEstimateReconstructor,
    NoiseDistributionReconstructor,
    PCAReconstructor,
    SpectralFilteringReconstructor,
    UnivariateReconstructor,
)
from repro.reconstruction.base import AffineMap, ReconstructionResult
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder

from tests.unit.test_shared_statistics import (
    BEDR_REFERENCES,
    DATASETS,
    _bedr_reference,
    _pca_reference,
    _sf_reference,
    assert_close,
)
from tests.unit.test_udr import _per_column_reference as _udr_reference

ATTACKS = {
    "UDR": UnivariateReconstructor,
    "SF": SpectralFilteringReconstructor,
    "PCA-DR": PCAReconstructor,
    "BE-DR": BayesEstimateReconstructor,
}


def _fresh(name, dataset):
    return ATTACKS[name]().reconstruct(dataset)


@pytest.fixture(params=sorted(DATASETS))
def dataset(request):
    return DATASETS[request.param]()


class TestAffineMap:
    def _table(self, n=6, m=3):
        return np.arange(n * m, dtype=np.float64).reshape(n, m)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weights", np.ones(4)),
            ("weights", np.ones((3, 4))),
            ("offset", np.ones((3, 3))),
            ("center", np.ones((2, 4))),
        ],
    )
    def test_rejects_wrong_shapes(self, field, value):
        arguments = {"weights": np.eye(3), "offset": np.zeros(3)}
        arguments[field] = value
        with pytest.raises(ValidationError, match=field):
            AffineMap(self._table(), **arguments)

    @pytest.mark.parametrize("field", ["weights", "offset", "center"])
    def test_rejects_non_finite(self, field):
        arguments = {
            "weights": np.eye(3),
            "offset": np.zeros(3),
            "center": np.zeros(3),
        }
        arguments[field] = arguments[field].copy()
        arguments[field].flat[0] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            AffineMap(self._table(), **arguments)

    def test_centred_form_reproduces_apply(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(40, 3)) * 5.0 + 7.0
        mean = table.mean(axis=0)
        maps = [
            AffineMap(table, rng.normal(size=3), rng.normal(size=3)),
            AffineMap(
                table,
                rng.normal(size=(3, 3)),
                rng.normal(size=3),
                center=rng.normal(size=(2, 3)),
            ),
            AffineMap(
                table, rng.normal(size=3), rng.normal(size=3),
                center=rng.normal(size=3),
            ),
        ]
        for affine in maps:
            weights, offset = affine.centred(mean)
            if weights.ndim == 1:
                weights = np.diag(weights)
            np.testing.assert_allclose(
                (table - mean) @ weights + offset, affine.apply(), rtol=1e-12
            )


class TestReconstructionResult:
    def test_exactly_one_of_estimate_and_affine(self):
        table = np.ones((4, 2))
        affine = AffineMap(table, np.ones(2), np.zeros(2))
        with pytest.raises(ValidationError, match="exactly one"):
            ReconstructionResult(method="X")
        with pytest.raises(ValidationError, match="exactly one"):
            ReconstructionResult(table, "X", affine=affine)
        with pytest.raises(ValidationError, match="AffineMap"):
            ReconstructionResult(method="X", affine="not a map")

    def test_immutable(self):
        result = ReconstructionResult(np.ones((2, 2)), "X")
        with pytest.raises(AttributeError):
            result.method = "Y"

    def test_shape_reads_the_published_table(self, dataset):
        result = _fresh("BE-DR", dataset)
        assert (result.n_records, result.n_attributes) == dataset.disguised.shape
        assert result.__dict__["_estimate"] is None


class TestLazyEstimate:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_all_four_figure_attacks_are_affine(self, name, dataset):
        assert _fresh(name, dataset).affine is not None

    def test_non_gaussian_udr_prior_stays_materialised(self):
        dataset = DATASETS["iid"]()
        result = UnivariateReconstructor(prior="reconstructed").reconstruct(
            dataset
        )
        assert result.affine is None

    def test_built_once_and_cached(self, dataset, monkeypatch):
        calls = 0
        apply = AffineMap.apply

        def counting(self):
            nonlocal calls
            calls += 1
            return apply(self)

        monkeypatch.setattr(AffineMap, "apply", counting)
        result = _fresh("PCA-DR", dataset)
        first = result.estimate
        assert result.estimate is first
        assert calls == 1

    @pytest.mark.parametrize(
        "name, reference",
        [
            ("UDR", _udr_reference),
            ("SF", _sf_reference),
            ("PCA-DR", _pca_reference),
        ],
    )
    def test_matches_the_eager_expression(self, name, reference, dataset):
        estimate = _fresh(name, dataset).estimate
        assert_close(
            estimate, reference(dataset.disguised, dataset.noise_model), 1e-12
        )

    def test_udr_with_a_noise_mean(self):
        rng = np.random.default_rng(11)
        model = NoiseModel(
            covariance=np.diag(rng.uniform(0.5, 3.0, 5)),
            mean=rng.normal(0.0, 0.4, 5),
        )
        table = rng.normal(size=(300, 5)) * 3.0 + 2.0
        estimate = UnivariateReconstructor().reconstruct(table, model).estimate
        assert_close(estimate, _udr_reference(table, model), 1e-12)

    def test_bedr_with_a_noise_mean(self):
        rng = np.random.default_rng(12)
        model = NoiseModel(covariance=0.5 * np.eye(5), mean=rng.normal(0.0, 3.0, 5))
        mixing = 3.0 * np.eye(5) + rng.normal(size=(5, 5))
        table = rng.normal(size=(300, 5)) @ mixing + 2.0
        estimate = BayesEstimateReconstructor().reconstruct(table, model).estimate
        assert_close(estimate, _bedr_reference(table, model), 1e-10)

    @pytest.mark.parametrize("case", sorted(DATASETS))
    def test_bedr_matches_theorem_81(self, case):
        dataset = DATASETS[case]()
        estimate = _fresh("BE-DR", dataset).estimate
        reference = BEDR_REFERENCES[case](dataset.disguised, dataset.noise_model)
        assert_close(estimate, reference, 1e-10)

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_outcome_dict_round_trip(self, name, dataset):
        (outcome,) = evaluate_attacks(dataset, {name: ATTACKS[name]()}).values()
        restored = AttackOutcome.from_dict(outcome.to_dict(include_estimate=True))
        assert restored.result.affine is None
        assert restored == outcome
        np.testing.assert_array_equal(
            restored.result.estimate, _fresh(name, dataset).estimate
        )

    def test_report_pickle_round_trip(self, dataset):
        report = PipelineReport(
            outcomes=evaluate_attacks(
                dataset, {name: attack() for name, attack in ATTACKS.items()}
            ),
            dataset=dataset,
        )
        restored = pickle.loads(pickle.dumps(report))
        assert restored == report
        for name in ATTACKS:
            assert restored.outcomes[name].result.affine is not None

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_equality_of_fresh_results(self, name, dataset):
        assert _fresh(name, dataset) == _fresh(name, dataset)
        materialised = ReconstructionResult(
            _fresh(name, dataset).estimate.copy(),
            name,
            _fresh(name, dataset).details,
        )
        assert _fresh(name, dataset) == materialised


def _near_identity_dataset(n=500, m=4, seed=21):
    """A dataset and an affine result whose estimate equals X to ~1e-10."""
    rng = np.random.default_rng(seed)
    original = rng.normal(size=(n, m)) * [4.0, 2.0, 1.0, 0.5] + 3.0
    mixing = np.eye(m) + 0.3 * rng.normal(size=(m, m))
    disguised = original @ mixing
    dataset = DisguisedDataset(
        disguised=disguised,
        noise_model=NoiseModel(covariance=np.eye(m), mean=np.zeros(m)),
        original=original,
        noise=disguised - original,
    )
    y_mean = dataset.statistics.column_means
    weights = np.linalg.inv(mixing) + 1e-10 * rng.normal(size=(m, m))
    offset = original.mean(axis=0)
    result = ReconstructionResult(
        method="near-identity",
        affine=AffineMap(disguised, weights, offset, center=y_mean),
    )
    return dataset, result


class TestCancellationGuard:
    def test_near_exact_estimate_is_scored_from_the_residual(self):
        dataset, result = _near_identity_dataset()
        recorder = Recorder()
        with trace.recording(recorder):
            rmse = root_mean_square_error(dataset, result)
            assert recorder.counters["metrics.score.fallbacks"] == 1
            per_attribute = per_attribute_rmse(dataset, result)
            assert recorder.counters["metrics.score.fallbacks"] == 2
        residual = dataset.original - result.estimate
        assert 1e-12 < rmse < 1e-8
        assert rmse == np.sqrt(np.mean(residual**2))
        np.testing.assert_array_equal(
            per_attribute, np.sqrt(np.mean(residual**2, axis=0))
        )

    def test_figure_attack_takes_the_closed_form(self, dataset):
        recorder = Recorder()
        with trace.recording(recorder):
            outcomes = evaluate_attacks(
                dataset, {name: attack() for name, attack in ATTACKS.items()}
            )
        assert "metrics.score.fallbacks" not in recorder.counters
        for name, outcome in outcomes.items():
            assert outcome.result.__dict__["_estimate"] is None, name
            materialised = root_mean_square_error(
                dataset.original, outcome.result.estimate
            )
            assert outcome.rmse == pytest.approx(materialised, rel=1e-9)


class TestDispatch:
    def test_raw_table_scores_the_materialised_estimate(self, dataset):
        result = _fresh("SF", dataset)
        value = mean_square_error(dataset.original, result)
        assert value == np.mean((dataset.original - result.estimate) ** 2)
        assert "_reference_gram" not in dataset.__dict__

    def test_non_affine_result_against_a_dataset(self, dataset):
        result = NoiseDistributionReconstructor().reconstruct(dataset)
        assert root_mean_square_error(dataset, result) == root_mean_square_error(
            dataset.original, result
        )
        assert "_reference_gram" not in dataset.__dict__

    def test_result_over_another_table_is_materialised(self, dataset):
        copy = dataset.disguised.copy()
        result = PCAReconstructor().reconstruct(copy, dataset.noise_model)
        value = root_mean_square_error(dataset, result)
        assert value == root_mean_square_error(dataset.original, result.estimate)
        assert "_reference_gram" not in dataset.__dict__

    def test_gram_stays_private_and_out_of_the_pickle(self, dataset):
        root_mean_square_error(dataset, _fresh("BE-DR", dataset))
        gram = dataset.reference_gram
        assert dataset.reference_gram is gram
        assert not any(
            value is gram for value in vars(dataset.statistics).values()
        )
        for array in (gram.mean, gram.sq_norms, gram.cross):
            assert not array.flags.writeable
        restored = pickle.loads(pickle.dumps(dataset))
        assert "_reference_gram" not in restored.__dict__
        assert restored == dataset
