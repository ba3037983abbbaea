"""Engine scaling — serial vs process-pool wall-clock on Figure 1.

Runs a Figure-1-sized sweep (all eleven attribute counts, two trials per
point) in process and through ``Executor(workers=N)`` at several worker
counts, asserts the parallel series are bit-identical to the serial
baseline, and records wall-clock times and speedups as JSON
under ``benchmarks/results/``.

The speedup assertion (> 1.5x at 4 workers) only applies on machines
that actually have >= 4 usable CPUs; the determinism assertions always
apply.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import Engine, Executor, default_worker_count
from repro.api.config import SweepConfig
from repro.experiments.runners import run_experiment1_attributes

from _bench_utils import emit_json

CONFIG = SweepConfig(n_records=2000, n_trials=2, seed=2005)
ATTRIBUTE_COUNTS = [5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
WORKER_COUNTS = (2, 4)


def _timed_run(engine: Engine):
    start = time.perf_counter()
    series = run_experiment1_attributes(
        CONFIG, attribute_counts=ATTRIBUTE_COUNTS, engine=engine
    )
    return series, time.perf_counter() - start


def test_engine_scaling_speedup_and_determinism():
    usable_cpus = default_worker_count()
    serial_series, serial_seconds = _timed_run(Engine(Executor()))

    runs = {"serial": {"workers": 1, "seconds": serial_seconds, "speedup": 1.0}}
    speedups = {}
    for workers in WORKER_COUNTS:
        engine = Engine(Executor(workers=workers))
        series, seconds = _timed_run(engine)
        for method in serial_series.methods:
            np.testing.assert_array_equal(
                serial_series.curve(method),
                series.curve(method),
                err_msg=f"parallel ({workers} workers) diverged from serial",
            )
        speedups[workers] = serial_seconds / seconds
        runs[f"parallel-{workers}"] = {
            "workers": workers,
            "seconds": seconds,
            "speedup": speedups[workers],
        }

    emit_json(
        "engine_scaling",
        {
            "experiment": "figure1",
            "n_records": CONFIG.n_records,
            "n_trials": CONFIG.n_trials,
            "sweep_points": len(ATTRIBUTE_COUNTS),
            "jobs": len(ATTRIBUTE_COUNTS) * CONFIG.n_trials,
            "usable_cpus": usable_cpus,
            "runs": runs,
        },
    )

    if usable_cpus >= 4:
        assert speedups[4] > 1.5, (
            f"expected >1.5x speedup at 4 workers on {usable_cpus} CPUs, "
            f"got {speedups[4]:.2f}x"
        )
