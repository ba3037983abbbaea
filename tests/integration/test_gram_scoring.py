"""Closed-form scoring of the figure attacks, against two references.

The four figure attacks are scored from one cross-Gram per dataset (see
:mod:`repro.metrics.error`).  Two contracts hold that path to account:

* **Agreement.** On every one of the 43 Figure 1-4 jobs at the
  ``SweepConfig`` defaults (Figure 4's correlated noise included), the
  closed-form scores equal the scores of the materialised estimates to
  ``rtol=1e-9`` (RMSE) and ``rtol=1e-8`` (per attribute), and the
  cancellation guard never fires.
* **The paper's oracles.** Over 8 seeds of Figure 2 jobs, scored through
  the closed form only: BE-DR with the oracle covariance and mean sits
  within 3 standard errors of the Section 6 posterior value
  ``sqrt(trace(A^-1) / m)``, and UDR within 3 standard errors of the
  Theorem 4.1 per-attribute shrinkage on the realised ``diag(Sigma)``.
"""

import numpy as np
import pytest

from repro.api import SweepConfig, builtin_spec
from repro.api.config import DEFAULT_NOISE_STD, DEFAULT_RECORDS
from repro.core import pipeline
from repro.core.pipeline import evaluate_attacks
from repro.data.spectra import two_level_spectrum
from repro.data.synthetic import generate_dataset
from repro.engine.jobs import derive_rng, resolve_task
from repro.metrics.error import per_attribute_rmse, root_mean_square_error
from repro.randomization.additive import AdditiveNoiseScheme
from repro.randomization.base import DisguisedDataset
from repro.reconstruction import BayesEstimateReconstructor, UnivariateReconstructor
from repro.reconstruction.base import AffineMap
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder

FIGURES = ("figure1", "figure2", "figure3", "figure4")


def _figure_jobs():
    return [
        job
        for name in FIGURES
        for job in builtin_spec(name, SweepConfig()).compile_jobs()
    ]


class TestAgreementOnEveryFigureJob:
    def test_gram_scores_match_materialised_scores(self, monkeypatch):
        worst = {"rmse": 0.0, "per_attribute": 0.0}
        scored = []

        def rmse(reference, result):
            assert isinstance(reference, DisguisedDataset)
            assert result.affine is not None
            gram = root_mean_square_error(reference, result)
            materialised = root_mean_square_error(
                reference.original, result.estimate
            )
            worst["rmse"] = max(worst["rmse"], abs(gram / materialised - 1.0))
            scored.append(result.method)
            return gram

        def per_attribute(reference, result):
            gram = per_attribute_rmse(reference, result)
            materialised = per_attribute_rmse(reference.original, result.estimate)
            worst["per_attribute"] = max(
                worst["per_attribute"],
                float(np.max(np.abs(gram / materialised - 1.0))),
            )
            return gram

        monkeypatch.setattr(pipeline, "root_mean_square_error", rmse)
        monkeypatch.setattr(pipeline, "per_attribute_rmse", per_attribute)
        jobs = _figure_jobs()
        assert len(jobs) == 43
        recorder = Recorder()
        with trace.recording(recorder):
            for job in jobs:
                resolve_task(job.task)(job.params, derive_rng(job))
        # 34 four-attack jobs (Figures 1-3) and 9 three-attack jobs.
        assert len(scored) == 34 * 4 + 9 * 3
        assert recorder.counters.get("metrics.score.fallbacks", 0) == 0
        assert worst["rmse"] < 1e-9
        assert worst["per_attribute"] < 1e-8


def _figure2_dataset(seed, n_principal=40, m=100):
    spectrum = two_level_spectrum(
        m, n_principal, total_variance=100.0 * m, non_principal_value=4.0
    )
    data = generate_dataset(spectrum=spectrum, n_records=DEFAULT_RECORDS, rng=seed)
    disguised = AdditiveNoiseScheme(std=DEFAULT_NOISE_STD).disguise(
        data.values, rng=seed + 1000
    )
    return data, disguised


def _within_three_standard_errors(measured, expected):
    differences = np.asarray(measured) - np.asarray(expected)
    standard_error = differences.std(ddof=1) / np.sqrt(differences.size)
    assert abs(differences.mean()) <= 3.0 * standard_error, (
        differences.mean(),
        standard_error,
    )


class TestOracles:
    SEEDS = range(8)

    @pytest.fixture(autouse=True)
    def closed_form_only(self, monkeypatch):
        """Fail if any estimate is materialised: scores use the Gram path."""

        def refuse(self):
            raise AssertionError("an (n, m) estimate was materialised")

        monkeypatch.setattr(AffineMap, "apply", refuse)
        recorder = Recorder()
        with trace.recording(recorder):
            yield
        assert "metrics.score.fallbacks" not in recorder.counters

    def test_bedr_oracle_matches_the_section6_posterior(self):
        measured, expected = [], []
        for seed in self.SEEDS:
            data, disguised = _figure2_dataset(seed)
            attack = BayesEstimateReconstructor(
                oracle_covariance=data.population_covariance,
                oracle_mean=data.mean,
            )
            (outcome,) = evaluate_attacks(disguised, {"BE-DR": attack}).values()
            measured.append(outcome.rmse)
            expected.append(np.sqrt(outcome.result.details["expected_mse"]))
        _within_three_standard_errors(measured, expected)

    def test_udr_matches_theorem41_shrinkage(self):
        noise_variance = DEFAULT_NOISE_STD**2
        measured, expected = [], []
        for seed in self.SEEDS:
            data, disguised = _figure2_dataset(seed)
            (outcome,) = evaluate_attacks(
                disguised, {"UDR": UnivariateReconstructor()}
            ).values()
            signal = np.diag(data.population_covariance)
            posterior = signal * noise_variance / (signal + noise_variance)
            measured.append(outcome.rmse)
            expected.append(np.sqrt(np.mean(posterior)))
        _within_three_standard_errors(measured, expected)
