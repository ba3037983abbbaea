"""Parallel experiment engine: jobs, the executor, result cache, progress.

This package is the execution layer every figure runner and ablation
routes through.  Callers describe their sweep as a list of serializable
:class:`~repro.engine.jobs.JobSpec` objects and hand it to an
:class:`Engine`, which consults the optional on-disk
:class:`~repro.engine.cache.ResultCache`, dispatches the misses to an
:class:`~repro.engine.executor.Executor` (in process for one worker, a
process pool otherwise), and returns
:class:`~repro.engine.jobs.JobResult` objects in spec order.

Determinism contract
--------------------
Every job's randomness derives solely from its ``(seed_root,
seed_path)`` seed coordinates — ``default_rng(SeedSequence(seed_root,
spawn_key=seed_path))`` — which reproduces the historical
``spawn_generators`` tree exactly.  Therefore the worker count,
chunking, and execution order never change a result bit, and a cached
payload is interchangeable with a fresh execution.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.executor import Executor, default_worker_count
from repro.engine.jobs import (
    CACHE_VERSION,
    JobResult,
    JobSpec,
    derive_rng,
    execute_job,
    failed_result,
    resolve_task,
)
from repro.engine.progress import (
    ProgressReporter,
    ThroughputReporter,
    TraceReporter,
)
from repro.exceptions import JobExecutionError
from repro.telemetry import trace

__all__ = [
    "CACHE_VERSION",
    "Engine",
    "Executor",
    "JobExecutionError",
    "JobResult",
    "JobSpec",
    "ProgressReporter",
    "ResultCache",
    "ThroughputReporter",
    "TraceReporter",
    "default_cache_dir",
    "default_worker_count",
    "derive_rng",
    "execute_job",
    "failed_result",
    "resolve_task",
]


class Engine:
    """Facade tying an executor, an optional cache, and progress hooks.

    Parameters
    ----------
    executor:
        Runs the cache misses; default ``Executor()`` (one worker), so a
        bare ``Engine()`` behaves exactly like the historical in-process
        loops.
    cache:
        Optional :class:`ResultCache`; completed jobs found there are
        returned without executing.
    progress:
        Optional :class:`ProgressReporter` receiving start / per-job /
        finish events (cache hits included).
    fail_fast:
        ``True`` (default): the first job failure raises out of
        :meth:`run`.  ``False``: failures surface as failed
        :class:`JobResult` objects (``result.failed``, original
        traceback on ``result.error``) and the whole grid drains;
        failed results are never cached.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        cache: ResultCache | None = None,
        progress: ProgressReporter | None = None,
        fail_fast: bool = True,
    ) -> None:
        self.executor = executor if executor is not None else Executor()
        self.cache = cache
        self.progress = progress if progress is not None else ProgressReporter()
        self.fail_fast = fail_fast

    def run(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Execute (or recover) every spec; results come back in spec order."""
        specs = list(specs)
        total = len(specs)
        started = time.perf_counter()
        self.progress.on_start(total)

        results: list[JobResult | None] = [None] * total
        pending: list[tuple[int, JobSpec]] = []
        completed = 0
        cached = 0
        with trace.span(
            "engine.run",
            jobs=total,
            workers=self.executor.workers,
        ) as run_span:
            # Heartbeat gauges: the live progress surface the metrics
            # exporter derives rate/ETA from.  Last-value-wins, so a
            # mid-run snapshot always sees a consistent triple.
            trace.gauge("engine.jobs.total", float(total))
            trace.gauge("engine.jobs.completed", 0.0)
            trace.gauge("engine.jobs.cached", 0.0)
            for index, spec in enumerate(specs):
                hit = self.cache.get(spec) if self.cache is not None else None
                if hit is not None:
                    results[index] = hit
                    completed += 1
                    cached += 1
                    trace.gauge("engine.jobs.completed", float(completed))
                    trace.gauge("engine.jobs.cached", float(cached))
                    if trace.enabled():
                        # A zero-length span keeps per-job provenance
                        # uniform: cache hits appear in the trace with
                        # their original compute cost as an attribute.
                        with trace.span(
                            "engine.job",
                            task=spec.task,
                            key=hit.key[:16],
                            seed_path=list(spec.seed_path),
                            cached=True,
                            original_duration=hit.duration,
                        ):
                            pass
                    self.progress.on_result(hit, completed, total)
                else:
                    pending.append((index, spec))

            if pending:
                pending_specs = [spec for _, spec in pending]
                spec_by_key = {spec.key(): spec for spec in pending_specs}

                def on_done(result: JobResult) -> None:
                    nonlocal completed
                    completed += 1
                    trace.gauge("engine.jobs.completed", float(completed))
                    # Persist immediately so a later job failure (or an
                    # interrupt) does not discard work already finished.
                    # Failed results (fail_fast=False drains) carry no
                    # payload and must never be served from the cache.
                    if self.cache is not None and not result.failed:
                        self.cache.put(spec_by_key[result.key], result)
                    # Spans recorded inside a worker process ride back
                    # on the result; graft them under this run's span.
                    trace.adopt(result.trace)
                    self.progress.on_result(result, completed, total)

                fresh = self.executor.run(
                    pending_specs,
                    callback=on_done,
                    fail_fast=self.fail_fast,
                )
                for (index, _), result in zip(pending, fresh):
                    results[index] = result
            run_span.set(cached=cached)

        self.progress.on_finish(
            time.perf_counter() - started, completed, cached
        )
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"Engine(executor={self.executor!r}, cache={self.cache!r})"
        )
