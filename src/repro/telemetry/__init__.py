"""Zero-dependency tracing, metrics, and run-provenance layer.

The measurement substrate under every scale-out direction: you cannot
autotune, shard, or regress what you cannot observe.  The package
provides

* hierarchical **spans** with monotonic timing and per-span attributes
  (:mod:`~repro.telemetry.spans`), recorded through the
  :mod:`~repro.telemetry.trace` facade — a no-op fast path when no
  recorder is active, so hot kernels stay permanently instrumented;
* **counters and gauges** (cache hits, jobs dispatched) on the same
  thread-safe :class:`~repro.telemetry.recorder.Recorder`, which
  serializes everything to a versioned ``repro-trace/v1`` document
  (:mod:`~repro.telemetry.schema`) and merges fragments shipped back
  from the engine's worker processes;
* **run manifests** (:mod:`~repro.telemetry.manifest`): spec hash, seed
  lineage, git revision, platform, package versions, per-job timings;
* an ASCII **viewer** (:mod:`~repro.telemetry.viewer`) behind
  ``repro trace <file>``;
* a **run-health layer**: live metrics export to ``repro-metrics/v1``
  ring files + OpenMetrics text (:mod:`~repro.telemetry.exporter`),
  ``/proc``-based worker resource sampling
  (:mod:`~repro.telemetry.sampler`), cross-run trace diffing
  (:mod:`~repro.telemetry.diff`), and bench-history timelines
  (:mod:`~repro.telemetry.history`);
* **convergence telemetry**: per-iteration trackers for the iterative
  kernels (:mod:`~repro.telemetry.convergence`), serialized as
  ``repro-convergence/v1`` span payloads and surfaced by the viewer,
  the diff, the manifests, and the live ``repro watch`` dashboard
  (:mod:`~repro.telemetry.watch`).

Typical use::

    from repro.telemetry import Recorder, trace

    recorder = Recorder()
    with trace.recording(recorder):
        result = run_spec("sweep.json")
    document = recorder.to_document(manifest=build_manifest(spec=spec))
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

from repro.telemetry import trace
from repro.telemetry.convergence import (
    CONVERGENCE_SCHEMA,
    IterationTracker,
    collect_payloads,
    summarize_payloads,
)
from repro.telemetry.diff import diff_traces, render_diff
from repro.telemetry.exporter import (
    MetricsExporter,
    RunHealth,
    render_openmetrics,
    run_health,
)
from repro.telemetry.history import (
    HISTORY_SCHEMA,
    build_history,
    render_history,
)
from repro.telemetry.manifest import (
    MANIFEST_KIND,
    build_manifest,
    git_revision,
    package_versions,
    platform_info,
    spec_fingerprint,
)
from repro.telemetry.recorder import Recorder
from repro.telemetry.sampler import ResourceSampler, sampling_supported
from repro.telemetry.schema import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    validate_metrics,
    validate_trace,
)
from repro.telemetry.spans import Span
from repro.telemetry.viewer import format_seconds, render_trace, sparkline
from repro.telemetry.watch import render_watch, watch_loop

__all__ = [
    "CONVERGENCE_SCHEMA",
    "HISTORY_SCHEMA",
    "IterationTracker",
    "MANIFEST_KIND",
    "METRICS_SCHEMA",
    "MetricsExporter",
    "Recorder",
    "ResourceSampler",
    "RunHealth",
    "Span",
    "TRACE_SCHEMA",
    "build_history",
    "build_manifest",
    "collect_payloads",
    "diff_traces",
    "format_seconds",
    "git_revision",
    "package_versions",
    "platform_info",
    "render_diff",
    "render_history",
    "render_openmetrics",
    "render_trace",
    "render_watch",
    "run_health",
    "sampling_supported",
    "sparkline",
    "spec_fingerprint",
    "summarize_payloads",
    "trace",
    "validate_metrics",
    "validate_trace",
    "watch_loop",
    "write_trace",
]


def write_trace(
    document: dict[str, Any], path: str | os.PathLike[str]
) -> pathlib.Path:
    """Validate ``document`` and write it to ``path`` as strict JSON.

    Validation-on-write means every file this function produces is a
    well-formed ``repro-trace/v1`` document — the same guarantee the
    ``repro trace --validate`` CI step checks from the outside.
    """
    validate_trace(document)
    target = pathlib.Path(path)
    target.write_text(
        json.dumps(document, indent=2, allow_nan=False) + "\n"
    )
    return target
