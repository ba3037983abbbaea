"""Integration tests: experiments through the engine, serial vs parallel.

The acceptance bar for the engine: ``Executor(workers=N)`` produces
*bit-identical* ``ExperimentSeries`` to the serial baseline for
the same seed, and a cached rerun reproduces the same series without
executing any job.
"""

import numpy as np

from repro.engine import Engine, Executor, ResultCache
from repro.experiments.ablations import run_ablation_samplesize
from repro.experiments.config import SweepConfig
from repro.experiments.runners import (
    run_experiment1_attributes,
    run_experiment4_correlated_noise,
    run_theorem52_verification,
)

TINY = SweepConfig(n_records=300, n_trials=2, seed=7)


def _assert_series_equal(a, b):
    assert a.methods == b.methods
    np.testing.assert_array_equal(a.x_values, b.x_values)
    for method in a.methods:
        np.testing.assert_array_equal(a.curve(method), b.curve(method))


class TestParallelEqualsSerial:
    def test_figure1_bit_identical_across_worker_counts(self):
        serial = run_experiment1_attributes(
            TINY, attribute_counts=[5, 20], engine=Engine(Executor())
        )
        for workers in (2, 3):
            parallel = run_experiment1_attributes(
                TINY,
                attribute_counts=[5, 20],
                engine=Engine(Executor(workers=workers)),
            )
            _assert_series_equal(serial, parallel)

    def test_figure4_bit_identical(self):
        kwargs = dict(profiles=[0.0, 1.0], n_attributes=20, n_principal=10)
        serial = run_experiment4_correlated_noise(TINY, **kwargs)
        parallel = run_experiment4_correlated_noise(
            TINY, engine=Engine(Executor(workers=2)), **kwargs
        )
        _assert_series_equal(serial, parallel)

    def test_ablation_bit_identical(self):
        kwargs = dict(sample_sizes=(150, 400), n_attributes=10, seed=3)
        serial = run_ablation_samplesize(**kwargs)
        parallel = run_ablation_samplesize(
            engine=Engine(Executor(workers=2)), **kwargs
        )
        _assert_series_equal(serial, parallel)

    def test_theorem52_through_engine(self):
        serial = run_theorem52_verification(
            n_attributes=20, component_counts=(2, 10), n_records=500
        )
        parallel = run_theorem52_verification(
            n_attributes=20,
            component_counts=(2, 10),
            n_records=500,
            engine=Engine(Executor(workers=2)),
        )
        _assert_series_equal(serial, parallel)


class TestCachedRerun:
    def test_cached_rerun_is_identical_and_skips_execution(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        first = run_experiment1_attributes(
            TINY, attribute_counts=[5, 20], engine=Engine(cache=cache)
        )
        assert len(cache) == 4  # 2 points x 2 trials

        # Any attempt to execute a job on the rerun is a test failure.
        class ExplodingExecutor(Executor):
            def run(self, specs, callback=None):
                raise AssertionError(
                    f"{len(list(specs))} jobs executed despite warm cache"
                )

        second = run_experiment1_attributes(
            TINY,
            attribute_counts=[5, 20],
            engine=Engine(ExplodingExecutor(), cache=cache),
        )
        _assert_series_equal(first, second)

    def test_cache_distinguishes_configs(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment1_attributes(
            TINY, attribute_counts=[5, 20], engine=Engine(cache=cache)
        )
        other = SweepConfig(n_records=300, n_trials=2, seed=8)
        run_experiment1_attributes(
            other, attribute_counts=[5, 20], engine=Engine(cache=cache)
        )
        assert len(cache) == 8, "different seeds must occupy different keys"
