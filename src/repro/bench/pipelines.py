"""Full-pipeline benchmarks: figures and theorem through the engine.

These time exactly what ``repro figure1`` etc. execute — spec
compilation, engine dispatch (serial, cache disabled so every run does
the work), task execution, and aggregation — so the perf trajectory
covers the end-to-end path users hit, not just the numerical kernels.

``smoke`` variants shrink ``n_records`` so CI stays fast; ``full``
variants run the paper-scale defaults and are for local acceptance runs.
"""

from __future__ import annotations

from repro.bench.registry import register_benchmark

__all__ = []  # everything here registers via side effect


def _pipeline_setup(name: str, config=None):
    from repro.api.builtin import builtin_spec
    from repro.api.runner import run_spec

    if config is not None:
        spec = builtin_spec(name, config)
    else:
        spec = builtin_spec(name)

    def run():
        return run_spec(spec)

    return run


def _smoke_config():
    from repro.api.config import SweepConfig

    return SweepConfig(n_records=200, n_trials=1, seed=2005)


@register_benchmark(
    "pipeline.figure1.smoke",
    group="pipeline",
    tags=("smoke",),
    params={"n_records": 200, "n_trials": 1},
)
def _figure1_smoke():
    return _pipeline_setup("figure1", _smoke_config())


@register_benchmark(
    "pipeline.figure2.smoke",
    group="pipeline",
    tags=("smoke",),
    params={"n_records": 200, "n_trials": 1},
)
def _figure2_smoke():
    return _pipeline_setup("figure2", _smoke_config())


@register_benchmark(
    "pipeline.figure3.smoke",
    group="pipeline",
    tags=("smoke",),
    params={"n_records": 200, "n_trials": 1},
)
def _figure3_smoke():
    return _pipeline_setup("figure3", _smoke_config())


@register_benchmark(
    "pipeline.figure4.smoke",
    group="pipeline",
    tags=("smoke",),
    params={"n_records": 200, "n_trials": 1},
)
def _figure4_smoke():
    return _pipeline_setup("figure4", _smoke_config())


@register_benchmark(
    "pipeline.theorem52.smoke",
    group="pipeline",
    tags=("smoke",),
    params={"n_records": 1_000},
)
def _theorem52_smoke():
    from repro.api.builtin import theorem52_spec
    from repro.api.runner import run_spec

    spec = theorem52_spec(n_records=1_000)

    def run():
        return run_spec(spec)

    return run


@register_benchmark(
    "pipeline.figure1.full",
    group="pipeline",
    tags=("full",),
    params={"n_records": "default", "n_trials": 1},
    repeat=1,
)
def _figure1_full():
    return _pipeline_setup("figure1")


@register_benchmark(
    "pipeline.figure4.full",
    group="pipeline",
    tags=("full",),
    params={"n_records": "default", "n_trials": 1},
    repeat=1,
)
def _figure4_full():
    return _pipeline_setup("figure4")
