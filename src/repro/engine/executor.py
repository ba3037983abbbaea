"""The executor: runs job specs in process or on a process pool.

An :class:`Executor` turns a list of :class:`~repro.engine.jobs.JobSpec`
into the matching list of :class:`~repro.engine.jobs.JobResult`,
order-preserving.  Its one knob is the worker count: with one worker
(or a single spec) every job runs in this process; otherwise the specs
are dispatched in auto-sized chunks to a ``ProcessPoolExecutor``.
Because every job derives its randomness from ``(seed_root,
seed_path)`` alone (see :mod:`repro.engine.jobs`), the worker count
changes only wall-clock time — results are bit-identical to the
in-process path for any number of workers.

Failure handling is the same on both paths: with ``fail_fast=True``
(default) the first failing job raises
:class:`~repro.exceptions.JobExecutionError` out of :meth:`Executor.run`
after finished work has been delivered to the callback; with
``fail_fast=False`` every failure is captured as a failed
:class:`~repro.engine.jobs.JobResult` (original traceback preserved on
``result.error``) and the grid drains to completion — even when a
worker process dies mid-job, in which case the lost chunk's jobs come
back as failed results.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import as_completed
from dataclasses import replace
from typing import Callable, Sequence

from repro.engine.jobs import JobResult, JobSpec, execute_job, failed_result
from repro.exceptions import ValidationError
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder

__all__ = ["Executor", "default_worker_count"]


def _run_job(spec: JobSpec, fail_fast: bool, queue_wait: float) -> JobResult:
    """Run one job, under an ``engine.job`` span when tracing is on.

    The span records the queue-wait vs. compute split (wall-clock from
    dispatch to start vs. the task's own monotonic duration), the
    process that ran the job, and its seed coordinates.
    """
    if not trace.enabled():
        return execute_job(spec, fail_fast=fail_fast)
    with trace.span(
        "engine.job",
        task=spec.task,
        key=spec.key()[:16],
        seed_path=list(spec.seed_path),
        worker=os.getpid(),
        cached=False,
        queue_wait=queue_wait,
    ) as span:
        result = execute_job(spec, fail_fast=fail_fast)
        span.set(compute=result.duration)
        if result.failed and result.error is not None:
            span.set(error=result.error["type"])
    return result


def _execute_chunk(
    specs: list[JobSpec],
    traced: bool,
    submitted_wall: float,
    fail_fast: bool,
) -> list[JobResult]:
    """Worker-side batch loop (module-level so the pool can pickle it).

    When the parent is tracing, each job runs under a fresh worker-side
    recorder and its span fragment rides back on the result for
    adoption into the parent trace.
    """
    if not traced:
        return [execute_job(spec, fail_fast=fail_fast) for spec in specs]
    results: list[JobResult] = []
    for spec in specs:
        recorder = Recorder()
        with trace.recording(recorder):
            queue_wait = max(0.0, time.time() - submitted_wall)
            result = _run_job(spec, fail_fast, queue_wait)
        results.append(replace(result, trace=recorder.export_fragment()))
    return results


def default_worker_count() -> int:
    """Autodetected worker count: the CPUs this process may use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux platforms
        return max(1, os.cpu_count() or 1)


def _announce_workers(pool: _ProcessPool) -> None:
    """Tell the resource sampler which PIDs are engine workers.

    Called once the first chunks are submitted (the pool spawns its
    processes lazily).  Announcing is unconditional and nearly free;
    when no sampler is running the registry is simply never read.
    """
    from repro.telemetry.sampler import announce_workers

    processes = getattr(pool, "_processes", None) or {}
    pids = [
        process.pid for process in processes.values() if process.pid is not None
    ]
    if pids:
        announce_workers(pids)


class Executor:
    """Executes job specs, preserving input order in the results.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (default) runs every job in this process;
        ``0`` autodetects via :func:`default_worker_count`.  Any other
        count dispatches chunks of ``ceil(n / (4 * workers))`` specs,
        capped at 16, to a process pool — enough batching to amortize
        IPC, small enough to keep the pool busy near the end of a sweep.

    Parameters of :meth:`run`:

    ``specs``
        The jobs to execute.
    ``callback``
        Optional ``callback(result)`` invoked once per finished job —
        the progress-reporting and cache-write hook.  The pool fires it
        as dispatch chunks complete (not in spec order), so finished
        work is observed — and cacheable — even while other jobs are
        still running or about to fail.
    ``fail_fast``
        ``True`` (default): the first failing job raises
        :class:`~repro.exceptions.JobExecutionError` out of :meth:`run`
        (remaining jobs may or may not have run).  ``False``: failures
        come back as failed :class:`~repro.engine.jobs.JobResult`
        objects and the whole grid drains.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers == 0:
            workers = default_worker_count()
        if not isinstance(workers, int) or workers < 1:
            raise ValidationError(
                f"workers must be a positive int (or 0 for auto), "
                f"got {workers!r}"
            )
        self.workers = workers

    def _chunk_for(self, n_jobs: int) -> int:
        return max(1, min(16, -(-n_jobs // (4 * self.workers))))

    def run(
        self,
        specs: Sequence[JobSpec],
        callback: Callable[[JobResult], None] | None = None,
        *,
        fail_fast: bool = True,
    ) -> list[JobResult]:
        """Execute every spec and return results in spec order."""
        specs = list(specs)
        if len(specs) <= 1 or self.workers == 1:
            # Not worth a pool; the in-process path is bit-identical.
            results: list[JobResult] = []
            for spec in specs:
                result = _run_job(spec, fail_fast, queue_wait=0.0)
                if callback is not None:
                    callback(result)
                results.append(result)
            return results
        chunk = self._chunk_for(len(specs))
        chunks = [specs[i:i + chunk] for i in range(0, len(specs), chunk)]
        chunk_results: list[list[JobResult] | None] = [None] * len(chunks)
        first_error: Exception | None = None
        traced = trace.enabled()
        with _ProcessPool(max_workers=min(self.workers, len(chunks))) as pool:
            futures = {
                pool.submit(
                    _execute_chunk, batch, traced, time.time(), fail_fast
                ): index
                for index, batch in enumerate(chunks)
            }
            _announce_workers(pool)
            # Harvest in completion order so every finished chunk
            # reaches the callback (and thus the cache) even when
            # another chunk fails; the failure is re-raised only after
            # the drain.
            for future in as_completed(futures):
                index = futures[future]
                try:
                    batch_results = future.result()
                except Exception as exc:
                    if fail_fast:
                        if first_error is None:
                            first_error = exc
                        continue
                    # Draining mode: the chunk's jobs are lost (a worker
                    # died, or dispatch itself failed) — surface each as
                    # a failed result rather than aborting the grid.
                    batch_results = [
                        failed_result(spec, exc) for spec in chunks[index]
                    ]
                chunk_results[index] = batch_results
                if callback is not None:
                    for result in batch_results:
                        callback(result)
        if first_error is not None:
            raise first_error
        return [
            result for batch in chunk_results for result in batch  # type: ignore[union-attr]
        ]

    def __repr__(self) -> str:
        return f"Executor(workers={self.workers})"
