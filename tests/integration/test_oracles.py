"""The attacks against the paper's closed forms (``repro.metrics.oracle``).

Two tiers, each run on Figure 2 datasets (``m = 100``, 40 principal
components, ``sigma = 5``) built two ways: as tables (draw ``X``, add
``R``) and as the moments the figure tasks draw
(:func:`~repro.data.synthetic.sample_moments`).

* **Oracle covariance.**  Over 40 seeds, scored through the closed
  form only: BE-DR given the population covariance and mean sits within 3
  standard errors of the Section 6 posterior value, PCA-DR given the
  population covariance within 3 standard errors of Theorem 5.2 at the
  component count it selects, and UDR within 3 standard errors of the
  Theorem 4.1 shrinkage on ``diag(Sigma)``.  The Theorem 5.1 estimate
  ``Cov(Y) - sigma^2 I`` is unbiased, with the Wishart entry variances.
  The standard error is estimated from the seeds themselves, so with 8
  seeds a 3-standard-error bound is a t-test on 7 degrees of freedom,
  which a correct attack fails about 2% of the time; 40 seeds bring
  that near the normal 0.3%.
* **Estimated covariance.**  Over 8 seeds, BE-DR and PCA-DR with the
  covariance estimated from the disguised data score above their
  oracles by more than 3 standard errors, and the excess shrinks from
  ``n = 2000`` to ``n = 20000`` (measured: BE-DR about 2.4% and 0.3%,
  PCA-DR about 1.4% and 0.1%).
"""

import numpy as np
import pytest

from repro.api.config import DEFAULT_NOISE_STD, DEFAULT_RECORDS
from repro.core.pipeline import evaluate_attacks
from repro.data.covariance_builder import CovarianceModel
from repro.data.spectra import two_level_spectrum
from repro.data.synthetic import generate_dataset, sample_moments
from repro.metrics import oracle
from repro.randomization.additive import AdditiveNoiseScheme
from repro.reconstruction import (
    BayesEstimateReconstructor,
    PCAReconstructor,
    UnivariateReconstructor,
)
from repro.reconstruction.base import AffineMap
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder

M = 100
SEEDS = range(40)
ESTIMATED_SEEDS = range(8)
PATHS = ("table", "moments")
NOISE_COVARIANCE = DEFAULT_NOISE_STD**2 * np.eye(M)


def _figure2(seed, path, n_records=DEFAULT_RECORDS):
    """``(population CovarianceModel, disguised dataset)`` of one seed."""
    spectrum = two_level_spectrum(
        M, 40, total_variance=100.0 * M, non_principal_value=4.0
    )
    scheme = AdditiveNoiseScheme(std=DEFAULT_NOISE_STD)
    if path == "table":
        data = generate_dataset(spectrum=spectrum, n_records=n_records, rng=seed)
        disguised = scheme.disguise(data.values, rng=seed + 1000)
        return data.covariance_model, disguised
    rng = np.random.default_rng(seed)
    model = CovarianceModel.from_spectrum(spectrum, rng)
    disguised = sample_moments(
        n_records,
        model.root,
        DEFAULT_NOISE_STD * np.eye(M),
        scheme.noise_model(M),
        rng,
    )
    return model, disguised


def _within_three_standard_errors(measured, expected):
    differences = np.asarray(measured) - np.asarray(expected)
    standard_error = differences.std(ddof=1) / np.sqrt(differences.size)
    assert abs(differences.mean()) <= 3.0 * standard_error, (
        differences.mean(),
        standard_error,
    )


@pytest.fixture
def closed_form_only(monkeypatch):
    """Fail if any estimate is materialised: scores use the Gram path."""

    def refuse(self):
        raise AssertionError("an (n, m) estimate was materialised")

    monkeypatch.setattr(AffineMap, "apply", refuse)
    recorder = Recorder()
    with trace.recording(recorder):
        yield
    assert "metrics.score.fallbacks" not in recorder.counters


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.usefixtures("closed_form_only")
class TestOracleCovariance:
    def test_bedr_oracle_matches_the_section6_posterior(self, path):
        measured, expected = [], []
        for seed in SEEDS:
            model, disguised = _figure2(seed, path)
            attack = BayesEstimateReconstructor(
                oracle_covariance=model.matrix, oracle_mean=np.zeros(M)
            )
            (outcome,) = evaluate_attacks(disguised, {"BE-DR": attack}).values()
            measured.append(outcome.rmse)
            expected.append(
                np.sqrt(oracle.bedr_mse(model.matrix, NOISE_COVARIANCE))
            )
        _within_three_standard_errors(measured, expected)

    def test_pca_dr_oracle_matches_theorem52(self, path):
        measured, expected = [], []
        for seed in SEEDS:
            model, disguised = _figure2(seed, path)
            attack = PCAReconstructor(oracle_covariance=model.matrix)
            (outcome,) = evaluate_attacks(disguised, {"PCA-DR": attack}).values()
            p = outcome.result.details["n_components"]
            measured.append(outcome.rmse)
            expected.append(
                np.sqrt(oracle.pca_dr_mse(model.matrix, NOISE_COVARIANCE, p))
            )
        _within_three_standard_errors(measured, expected)

    def test_udr_matches_theorem41_shrinkage(self, path):
        measured, expected = [], []
        for seed in SEEDS:
            model, disguised = _figure2(seed, path)
            (outcome,) = evaluate_attacks(
                disguised, {"UDR": UnivariateReconstructor()}
            ).values()
            measured.append(outcome.rmse)
            expected.append(
                np.sqrt(oracle.udr_mse(model.matrix, NOISE_COVARIANCE))
            )
        _within_three_standard_errors(measured, expected)

    def test_theorem51_estimate_is_unbiased_with_wishart_spread(self, path):
        """Per seed, the mean standardised error of the estimate's upper
        triangle (mean 0) and its mean square (mean 1)."""
        rows, cols = np.triu_indices(M)
        errors, squares = [], []
        for seed in SEEDS:
            model, disguised = _figure2(seed, path)
            estimate = disguised.statistics.covariance - NOISE_COVARIANCE
            mean, variance = oracle.covariance_estimate_moments(
                model.matrix, NOISE_COVARIANCE, disguised.n_records
            )
            z = ((estimate - mean) / np.sqrt(variance))[rows, cols]
            errors.append(z.mean())
            squares.append(np.mean(z**2))
        _within_three_standard_errors(errors, np.zeros(len(SEEDS)))
        _within_three_standard_errors(squares, np.ones(len(SEEDS)))


@pytest.mark.parametrize("path", PATHS)
def test_estimated_covariance_scores_above_the_oracle(path):
    attacks = {"BE-DR": BayesEstimateReconstructor, "PCA-DR": PCAReconstructor}
    oracles = {"BE-DR": oracle.bedr_mse, "PCA-DR": oracle.pca_dr_mse}
    excess = {}
    for n_records in (2000, 20000):
        relative = {name: [] for name in attacks}
        for seed in ESTIMATED_SEEDS:
            model, disguised = _figure2(seed, path, n_records)
            outcomes = evaluate_attacks(
                disguised, {name: attack() for name, attack in attacks.items()}
            )
            for name, outcome in outcomes.items():
                bound = np.sqrt(oracles[name](model.matrix, NOISE_COVARIANCE))
                relative[name].append(outcome.rmse / bound - 1.0)
        for name, values in relative.items():
            standard_error = np.std(values, ddof=1) / np.sqrt(len(values))
            assert np.mean(values) > 3.0 * standard_error, (name, n_records)
            excess[name, n_records] = np.mean(values)
    for name in attacks:
        assert excess[name, 20000] < excess[name, 2000] / 2, name
