"""Zero-dependency tracing, metrics, and run-provenance layer.

The measurement substrate under every scale-out direction: you cannot
autotune, shard, or regress what you cannot observe.  The package
provides

* hierarchical **spans** with monotonic timing and per-span attributes
  (:mod:`~repro.telemetry.spans`), recorded through the
  :mod:`~repro.telemetry.trace` facade — a no-op fast path when no
  recorder is active, so hot kernels stay permanently instrumented;
* **counters and gauges** (cache hits, PSD repairs) on the same
  thread-safe :class:`~repro.telemetry.recorder.Recorder`, which
  serializes everything to a versioned ``repro-trace/v2`` document
  (:mod:`~repro.telemetry.schema`), merges fragments shipped back from
  the engine's worker processes, and — given a path — streams the run
  to disk as it goes: one append-only JSONL file per run, the only
  telemetry artifact (:mod:`~repro.telemetry.stream` records and folds
  it);
* **run manifests** (:mod:`~repro.telemetry.manifest`): spec hash, seed
  lineage, git revision, platform, package versions, per-job timings;
* an ASCII **viewer** (:mod:`~repro.telemetry.viewer`) behind
  ``repro trace <file>``;
* **peak RSS and CPU** of the run and of its reaped pool workers,
  read once from ``getrusage`` when a traced run ends
  (:func:`~repro.telemetry.stream.traced_run`);
* cross-run trace diffing (:mod:`~repro.telemetry.diff`).

Typical use::

    from repro.telemetry import read_trace, traced_run

    with traced_run("trace.jsonl", manifest=lambda: build_manifest(spec=spec)):
        result = run_spec(spec)
    document = read_trace("trace.jsonl")

or, in memory::

    recorder = Recorder()
    with trace.recording(recorder):
        result = run_spec(spec)
    document = recorder.to_document(manifest=build_manifest(spec=spec))
"""

from __future__ import annotations

from repro.telemetry import trace
from repro.telemetry.diff import diff_traces, render_diff
from repro.telemetry.manifest import (
    MANIFEST_KIND,
    build_manifest,
    git_revision,
    package_versions,
    platform_info,
    spec_fingerprint,
)
from repro.telemetry.recorder import Recorder
from repro.telemetry.schema import TRACE_SCHEMA, validate_trace
from repro.telemetry.spans import Span
from repro.telemetry.stream import (
    TraceStream,
    fold_trace,
    read_trace,
    traced_run,
)
from repro.telemetry.viewer import format_seconds, render_trace

__all__ = [
    "MANIFEST_KIND",
    "Recorder",
    "Span",
    "TRACE_SCHEMA",
    "TraceStream",
    "build_manifest",
    "diff_traces",
    "fold_trace",
    "format_seconds",
    "git_revision",
    "package_versions",
    "platform_info",
    "read_trace",
    "render_diff",
    "render_trace",
    "spec_fingerprint",
    "trace",
    "traced_run",
    "validate_trace",
]
