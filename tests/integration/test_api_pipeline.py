"""Integration tests: declarative specs through the engine, end to end.

The acceptance bar mirrors the engine's: a component-mode spec run
on any number of workers (or recovered from cache) is *bit-identical*
to the serial run, and the built-in paper specs compile to exactly the
engine jobs the historical runners emitted.
"""

import numpy as np
import pytest

from repro.api import ExperimentSpec, builtin_spec, run_spec
from repro.api.config import SweepConfig
from repro.data.spectra import two_level_spectrum
from repro.engine import Engine, Executor, JobSpec, ResultCache


def noise_sweep_spec(**overrides):
    payload = {
        "name": "integration-sweep",
        "dataset": {
            "kind": "synthetic",
            "spectrum": two_level_spectrum(
                8, 2, total_variance=800.0
            ).tolist(),
        },
        "scheme": {"kind": "additive", "std": 5.0},
        "attacks": {
            "UDR": {"kind": "udr"},
            "PCA-DR": {"kind": "pca-dr"},
            "BE-DR": {"kind": "be-dr"},
        },
        "params": {"n_records": 150},
        "grid": {"scheme.std": [2.0, 5.0]},
        "x_param": "scheme.std",
        "trials": 2,
        "seed": 13,
    }
    payload.update(overrides)
    return ExperimentSpec(**payload)


class TestGenericSpecExecution:
    def test_parallel_bit_identical_to_serial(self):
        spec = noise_sweep_spec()
        serial = run_spec(spec, engine=Engine(Executor()))
        parallel = run_spec(
            spec, engine=Engine(Executor(workers=2))
        )
        assert parallel.methods == serial.methods
        for label in serial.methods:
            np.testing.assert_array_equal(
                parallel.curve(label), serial.curve(label)
            )

    def test_cached_rerun_bit_identical_without_execution(self, tmp_path):
        spec = noise_sweep_spec()
        cache = ResultCache(tmp_path / "cache")
        first = run_spec(spec, engine=Engine(cache=cache))
        assert first.stats["cached"] == 0
        second = run_spec(spec, engine=Engine(cache=cache))
        assert second.stats["cached"] == second.stats["jobs"]
        for label in first.methods:
            np.testing.assert_array_equal(
                second.curve(label), first.curve(label)
            )

    def test_threat_model_adversary_defines_battery(self):
        spec = noise_sweep_spec(
            attacks=None,
            threat_model={"kind": "threat_model",
                          "exploits_correlations": True},
            grid={},
            x_param=None,
        )
        result = run_spec(spec)
        assert result.methods == ["NDR", "UDR", "SF", "PCA-DR", "BE-DR"]

    def test_failing_attack_yields_nan_curve_and_error_record(self):
        spec = noise_sweep_spec(
            attacks={
                "UDR": {"kind": "udr"},
                # Wiener's window exceeds n_records: always raises.
                "Wiener": {"kind": "wiener", "window": 501},
            },
            grid={},
            x_param=None,
            trials=1,
        )
        result = run_spec(spec)
        assert np.isnan(result.curve("Wiener")[0])
        assert np.isfinite(result.curve("UDR")[0])
        assert "Wiener" in result.payloads[0][0]["errors"]


class TestBuiltinSpecCompilation:
    def test_figure1_jobs_match_frozen_contract(self):
        config = SweepConfig(n_records=200, n_trials=2, seed=7)
        spec = builtin_spec("figure1", config, attribute_counts=[5, 10])
        jobs = spec.compile_jobs()

        def spectrum_for(m):
            if m == 5:
                return two_level_spectrum(
                    m, m, total_variance=config.trace_for(m),
                    non_principal_value=config.non_principal_value,
                )
            return two_level_spectrum(
                m, 5, total_variance=config.trace_for(m),
                non_principal_value=config.non_principal_value,
            )

        expected = [
            JobSpec(
                task="repro.experiments.tasks:two_level_trial",
                params={
                    "spectrum": np.asarray(
                        spectrum_for(m), dtype=np.float64
                    ).tolist(),
                    "n_records": 200,
                    "noise_std": 5.0,
                },
                seed_root=7,
                seed_path=(index, trial),
            )
            for index, m in enumerate([5, 10])
            for trial in range(2)
        ]
        assert [job.key() for job in jobs] == [
            job.key() for job in expected
        ]

    def test_theorem52_keeps_root_seed_path(self):
        (job,) = builtin_spec("theorem52").compile_jobs()
        assert job.seed_root == 52
        assert job.seed_path == ()

    def test_ablations_keep_flat_seed_paths(self):
        jobs = builtin_spec("ablation-samplesize").compile_jobs()
        assert all(job.seed_root is None for job in jobs)
        assert all(job.seed_path == () for job in jobs)

    def test_every_builtin_spec_survives_json(self):
        for name in (
            "figure1", "figure2", "figure3", "figure4", "theorem52",
            "ablation-selection", "ablation-covariance",
            "ablation-samplesize", "ablation-utility",
            "ablation-marginals",
        ):
            spec = builtin_spec(name)
            clone = ExperimentSpec.from_json(spec.to_json())
            assert clone == spec
            assert [job.key() for job in clone.compile_jobs()] == [
                job.key() for job in spec.compile_jobs()
            ]

    def test_unknown_builtin_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="figure1"):
            builtin_spec("figure99")
