"""The disguised table's statistics are computed once and shared.

SF, PCA-DR and BE-DR read ``Cov(Y)``, the Theorem 5.1 / 8.2 estimate and
``Sigma_r^-1`` from one :class:`DisguisedStatistics` per dataset.  These
tests pin that sharing changes no bit of any attack's output, that a
failing statistic is never cached, that the cache stays out of equality
and pickling, and how much linear algebra one figure job does.
"""

import pickle

import numpy as np
import pytest

import repro.linalg.statistics as statistics_module
from repro.core.defense import NoiseDesigner
from repro.core.pipeline import AttackPipeline, evaluate_attacks
from repro.data.spectra import two_level_spectrum
from repro.data.synthetic import generate_dataset
from repro.exceptions import NotPositiveDefiniteError
from repro.experiments.tasks import two_level_trial
from repro.linalg.covariance import covariance_from_disguised, sample_covariance
from repro.linalg.eigen import sorted_eigh
from repro.linalg.psd import psd_inverse
from repro.randomization.additive import AdditiveNoiseScheme
from repro.reconstruction import (
    BayesEstimateReconstructor,
    PCAReconstructor,
    SpectralFilteringReconstructor,
    UnivariateReconstructor,
    marchenko_pastur_bounds,
)
from repro.reconstruction.selection import LargestGapSelector


# ----------------------------------------------------------------------
# References built directly from the linear-algebra primitives
# ----------------------------------------------------------------------
def _sf_reference(disguised, model, tolerance=0.05):
    n, m = disguised.shape
    variance = float(np.mean(np.diag(model.covariance)))
    _, upper = marchenko_pastur_bounds(variance, n, m)
    decomposition = sorted_eigh(sample_covariance(disguised))
    n_signal = max(int(np.sum(decomposition.values > upper * (1.0 + tolerance))), 1)
    means = disguised.mean(axis=0)
    return (disguised - means) @ decomposition.projector(n_signal) + means


def _pca_reference(disguised, model, estimator="sample", oracle=None):
    covariance = (
        oracle
        if oracle is not None
        else covariance_from_disguised(
            disguised, model.covariance, estimator=estimator
        )
    )
    decomposition = sorted_eigh(covariance)
    rank = LargestGapSelector().select(decomposition.values)
    means = disguised.mean(axis=0)
    return (disguised - means) @ decomposition.projector(rank) + means


def _bedr_reference(disguised, model, estimator="sample", oracle=None):
    sigma_x = (
        oracle
        if oracle is not None
        else covariance_from_disguised(
            disguised, model.covariance, estimator=estimator
        )
    )
    mu_x = disguised.mean(axis=0) - model.mean
    precision_x = psd_inverse(sigma_x)
    precision_r = psd_inverse(model.covariance)
    posterior = psd_inverse(precision_x + precision_r)
    constant = precision_x @ mu_x - precision_r @ model.mean
    return (disguised @ precision_r.T + constant) @ posterior.T


def _repair_fires(dataset):
    estimate = sample_covariance(dataset.disguised) - dataset.noise_model.covariance
    return bool(sorted_eigh(estimate).values.min() < 0.0)


def _iid_dataset(non_principal, noise_std, seed=3):
    spectrum = two_level_spectrum(
        12, 3, total_variance=1200.0, non_principal_value=non_principal
    )
    data = generate_dataset(spectrum=spectrum, n_records=800, rng=seed)
    return AdditiveNoiseScheme(std=noise_std).disguise(data.values, rng=seed + 1)


def _correlated_dataset(seed=5):
    """Figure-4-style designed, correlated noise."""
    spectrum = two_level_spectrum(
        12, 3, total_variance=1200.0, non_principal_value=4.0
    )
    data = generate_dataset(spectrum=spectrum, n_records=800, rng=seed)
    designed = NoiseDesigner(data.covariance_model, noise_power=300.0).design(0.5)
    return designed.scheme.disguise(data.values, rng=seed + 1), data


DATASETS = {
    "iid": lambda: _iid_dataset(non_principal=50.0, noise_std=1.0),
    "iid-repaired": lambda: _iid_dataset(non_principal=0.5, noise_std=5.0),
    "correlated": lambda: _correlated_dataset()[0],
}


def _assert_paths_agree(attack, reference, dataset):
    """Dataset path == raw-matrix path == primitive reference, bit for bit."""
    via_dataset = attack.reconstruct(dataset).estimate
    via_raw = attack.reconstruct(dataset.disguised, dataset.noise_model).estimate
    np.testing.assert_array_equal(via_dataset, via_raw)
    np.testing.assert_array_equal(via_dataset, reference)


class TestParity:
    def test_repair_cases_are_what_they_claim(self):
        assert not _repair_fires(DATASETS["iid"]())
        assert _repair_fires(DATASETS["iid-repaired"]())

    @pytest.mark.parametrize("case", sorted(DATASETS))
    def test_battery_bit_identical(self, case):
        dataset = DATASETS[case]()
        y, model = dataset.disguised, dataset.noise_model
        # One dataset for all three attacks, so they share its statistics.
        _assert_paths_agree(
            SpectralFilteringReconstructor(), _sf_reference(y, model), dataset
        )
        _assert_paths_agree(PCAReconstructor(), _pca_reference(y, model), dataset)
        _assert_paths_agree(
            BayesEstimateReconstructor(), _bedr_reference(y, model), dataset
        )

    @pytest.mark.parametrize("case", sorted(DATASETS))
    def test_ledoit_wolf_bit_identical(self, case):
        dataset = DATASETS[case]()
        y, model = dataset.disguised, dataset.noise_model
        _assert_paths_agree(
            PCAReconstructor(covariance_estimator="ledoit-wolf"),
            _pca_reference(y, model, estimator="ledoit-wolf"),
            dataset,
        )
        _assert_paths_agree(
            BayesEstimateReconstructor(covariance_estimator="ledoit-wolf"),
            _bedr_reference(y, model, estimator="ledoit-wolf"),
            dataset,
        )

    def test_oracle_covariance_bypasses_the_statistics(self):
        dataset, data = _correlated_dataset()
        oracle = data.covariance_model.matrix
        y, model = dataset.disguised, dataset.noise_model
        _assert_paths_agree(
            PCAReconstructor(oracle_covariance=oracle),
            _pca_reference(y, model, oracle=oracle),
            dataset,
        )
        _assert_paths_agree(
            BayesEstimateReconstructor(oracle_covariance=oracle),
            _bedr_reference(y, model, oracle=oracle),
            dataset,
        )

    def test_each_estimator_gets_its_own_estimate(self):
        dataset = DATASETS["iid-repaired"]()
        sample = PCAReconstructor().reconstruct(dataset)
        shrunk = PCAReconstructor(covariance_estimator="ledoit-wolf").reconstruct(
            dataset
        )
        y, model = dataset.disguised, dataset.noise_model
        np.testing.assert_array_equal(sample.estimate, _pca_reference(y, model))
        np.testing.assert_array_equal(
            shrunk.estimate, _pca_reference(y, model, estimator="ledoit-wolf")
        )
        estimate, _ = dataset.statistics.estimate("sample")
        lw_estimate, _ = dataset.statistics.estimate("ledoit-wolf")
        assert not np.array_equal(estimate, lw_estimate)


class TestFailureIsolation:
    def _battery(self):
        return {
            "BE-DR": BayesEstimateReconstructor(),
            "SF": SpectralFilteringReconstructor(),
            "BE-DR-lw": BayesEstimateReconstructor(covariance_estimator="ledoit-wolf"),
            "PCA-DR": PCAReconstructor(),
        }

    def test_failing_statistic_fails_each_attack_that_needs_it(self, monkeypatch):
        dataset = DATASETS["iid"]()

        def singular(matrix, **kwargs):
            raise NotPositiveDefiniteError("injected")

        monkeypatch.setattr(statistics_module, "psd_inverse", singular)
        outcomes = evaluate_attacks(dataset, self._battery(), fail_fast=False)
        for name in ("BE-DR", "BE-DR-lw"):
            assert outcomes[name].error == "NotPositiveDefiniteError: injected"
        for name in ("SF", "PCA-DR"):
            assert not outcomes[name].failed
        monkeypatch.undo()
        # Nothing half-built was cached: the statistic recomputes cleanly.
        np.testing.assert_array_equal(
            BayesEstimateReconstructor().reconstruct(dataset).estimate,
            _bedr_reference(dataset.disguised, dataset.noise_model),
        )

    def test_failure_is_not_cached(self, monkeypatch):
        dataset = DATASETS["iid"]()
        real = statistics_module.psd_inverse
        calls = []

        def fails_once(matrix, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise NotPositiveDefiniteError("transient")
            return real(matrix, **kwargs)

        monkeypatch.setattr(statistics_module, "psd_inverse", fails_once)
        outcomes = evaluate_attacks(dataset, self._battery(), fail_fast=False)
        assert outcomes["BE-DR"].error == "NotPositiveDefiniteError: transient"
        assert not outcomes["BE-DR-lw"].failed
        assert len(calls) == 2

    def test_real_singular_noise_precision(self):
        """A zero noise covariance has no precision: BE-DR alone fails."""
        from repro.randomization.base import DisguisedDataset, NoiseModel

        base = DATASETS["iid"]()
        m = base.n_attributes
        dataset = DisguisedDataset(
            disguised=base.disguised,
            noise_model=NoiseModel(covariance=np.zeros((m, m)), mean=np.zeros(m)),
            original=base.original,
            noise=base.noise,
        )
        outcomes = evaluate_attacks(dataset, self._battery(), fail_fast=False)
        assert outcomes["BE-DR"].error.startswith("NotPositiveDefiniteError")
        assert outcomes["BE-DR-lw"].error.startswith("NotPositiveDefiniteError")
        assert not outcomes["SF"].failed and not outcomes["PCA-DR"].failed


class TestCacheInvisible:
    def _run_battery(self, dataset):
        pipeline = AttackPipeline(
            AdditiveNoiseScheme(std=5.0),
            {
                "UDR": UnivariateReconstructor(),
                "SF": SpectralFilteringReconstructor(),
                "PCA-DR": PCAReconstructor(),
                "BE-DR": BayesEstimateReconstructor(),
            },
        )
        return pipeline.run(dataset)

    def test_pickle_bytes_unchanged_by_the_battery(self):
        dataset = DATASETS["iid-repaired"]()
        before = pickle.dumps(dataset)
        self._run_battery(dataset)
        assert pickle.dumps(dataset) == before
        restored = pickle.loads(before)
        assert restored == dataset
        assert "_statistics" not in vars(restored)

    def test_equality_and_report_ignore_the_cache(self):
        dataset = DATASETS["iid-repaired"]()
        fresh = pickle.loads(pickle.dumps(dataset))
        report = self._run_battery(dataset)
        assert dataset == fresh
        assert report.to_dict() == self._run_battery(fresh).to_dict()
        assert "statistics" not in str(report.to_dict(include_estimates=False))

    def test_cached_arrays_are_read_only(self):
        dataset = DATASETS["iid"]()
        BayesEstimateReconstructor().reconstruct(dataset)
        statistics = dataset.statistics
        estimate, decomposition = statistics.estimate()
        for array in (
            statistics.column_means,
            statistics.covariance,
            statistics.noise_precision,
            estimate,
            decomposition.values,
            decomposition.vectors,
        ):
            assert not array.flags.writeable


class TestCallCounts:
    """One figure job does the shared linear algebra once."""

    def _count(self, monkeypatch, params):
        import sys

        import repro.reconstruction.udr as udr_module

        counts = {"sample_covariance": 0, "eigh": 0, "noise_marginal_density": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        # Patch every module that imported sample_covariance by name.
        for module in list(sys.modules.values()):
            if getattr(module, "sample_covariance", None) is sample_covariance:
                monkeypatch.setattr(
                    module,
                    "sample_covariance",
                    counting("sample_covariance", sample_covariance),
                )
        monkeypatch.setattr(
            np.linalg, "eigh", counting("eigh", np.linalg.eigh)
        )
        monkeypatch.setattr(
            udr_module,
            "noise_marginal_density",
            counting("noise_marginal_density", udr_module.noise_marginal_density),
        )
        two_level_trial(params, np.random.default_rng(2005))
        return counts

    @pytest.mark.parametrize(
        "non_principal, noise_std, eigh_calls",
        [(50.0, 1.0, 4), (0.5, 5.0, 5)],
        ids=["no-repair", "repair"],
    )
    def test_two_level_trial(
        self, monkeypatch, non_principal, noise_std, eigh_calls
    ):
        params = {
            "spectrum": two_level_spectrum(
                20, 4, total_variance=2000.0, non_principal_value=non_principal
            ),
            "n_records": 500,
            "noise_std": noise_std,
        }
        counts = self._count(monkeypatch, params)
        assert counts == {
            "sample_covariance": 1,
            "eigh": eigh_calls,
            "noise_marginal_density": 0,
        }
