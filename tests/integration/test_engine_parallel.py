"""Integration tests: experiments through the engine, serial vs parallel.

The acceptance bar for the engine: ``Executor(workers=N)`` produces
*bit-identical* ``ExperimentSeries`` to the serial baseline for
the same seed, and a cached rerun reproduces the same series without
executing any job.
"""

import numpy as np

from repro.api import run_spec
from repro.api.builtin import (
    ablation_samplesize_spec,
    figure1_spec,
    figure4_spec,
    theorem52_spec,
)
from repro.api.config import SweepConfig
from repro.engine import Engine, Executor, ResultCache

TINY = SweepConfig(n_records=300, n_trials=2, seed=7)


def _series(spec, engine=None):
    return run_spec(spec, engine=engine).to_series()


def _assert_series_equal(a, b):
    assert a.methods == b.methods
    np.testing.assert_array_equal(a.x_values, b.x_values)
    for method in a.methods:
        np.testing.assert_array_equal(a.curve(method), b.curve(method))


class TestParallelEqualsSerial:
    def test_figure1_bit_identical_across_worker_counts(self):
        spec = figure1_spec(TINY, attribute_counts=[5, 20])
        serial = _series(spec, Engine(Executor()))
        for workers in (2, 3):
            parallel = _series(spec, Engine(Executor(workers=workers)))
            _assert_series_equal(serial, parallel)

    def test_figure4_bit_identical(self):
        spec = figure4_spec(
            TINY, profiles=[0.0, 1.0], n_attributes=20, n_principal=10
        )
        serial = _series(spec)
        parallel = _series(spec, Engine(Executor(workers=2)))
        _assert_series_equal(serial, parallel)

    def test_ablation_bit_identical(self):
        spec = ablation_samplesize_spec(
            sample_sizes=(150, 400), n_attributes=10, seed=3
        )
        serial = _series(spec)
        parallel = _series(spec, Engine(Executor(workers=2)))
        _assert_series_equal(serial, parallel)

    def test_theorem52_through_engine(self):
        spec = theorem52_spec(
            n_attributes=20, component_counts=(2, 10), n_records=500
        )
        serial = _series(spec)
        parallel = _series(spec, Engine(Executor(workers=2)))
        _assert_series_equal(serial, parallel)


class TestCachedRerun:
    def test_cached_rerun_is_identical_and_skips_execution(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        spec = figure1_spec(TINY, attribute_counts=[5, 20])
        first = _series(spec, Engine(cache=cache))
        assert len(cache) == 4  # 2 points x 2 trials

        # Any attempt to execute a job on the rerun is a test failure.
        class ExplodingExecutor(Executor):
            def run(self, specs, callback=None):
                raise AssertionError(
                    f"{len(list(specs))} jobs executed despite warm cache"
                )

        second = _series(spec, Engine(ExplodingExecutor(), cache=cache))
        _assert_series_equal(first, second)

    def test_cache_distinguishes_configs(self, tmp_path):
        cache = ResultCache(tmp_path)
        _series(
            figure1_spec(TINY, attribute_counts=[5, 20]), Engine(cache=cache)
        )
        other = SweepConfig(n_records=300, n_trials=2, seed=8)
        _series(
            figure1_spec(other, attribute_counts=[5, 20]), Engine(cache=cache)
        )
        assert len(cache) == 8, "different seeds must occupy different keys"
