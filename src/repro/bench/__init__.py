"""First-class benchmark subsystem behind ``repro bench``.

Times the numerical routines no figure runs (:mod:`repro.bench.hotpaths`)
and the tracing overhead (:mod:`repro.bench.telemetry`), emits
machine-readable ``BENCH_*.json`` payloads, and compares runs against
the committed baseline in ``benchmarks/baselines/``.  The figure
pipelines are timed end to end by ``perfbench``, the benchmark of
record.  See ``docs/benchmarking.md`` for the workflow and payload
schema.

Importing this package only loads the registry machinery; the benchmark
definitions themselves register on import of the two submodules (the CLI
does that), so ``import repro.bench`` stays cheap.
"""

from repro.bench.registry import (
    BenchmarkCase,
    all_benchmarks,
    iter_benchmarks,
    register_benchmark,
)
from repro.bench.runner import (
    SCHEMA,
    compare_to_baseline,
    load_payload,
    render_comparison,
    render_report,
    run_benchmarks,
    time_case,
    write_payload,
)

__all__ = [
    "SCHEMA",
    "BenchmarkCase",
    "all_benchmarks",
    "compare_to_baseline",
    "iter_benchmarks",
    "load_payload",
    "register_benchmark",
    "render_comparison",
    "render_report",
    "run_benchmarks",
    "time_case",
    "write_payload",
]
