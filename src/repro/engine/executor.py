"""The executor: runs job specs in process or on a process pool.

An :class:`Executor` turns a list of :class:`~repro.engine.jobs.JobSpec`
into the matching list of :class:`~repro.engine.jobs.JobResult`,
order-preserving.  Its one knob is the worker count: with one worker
(or a single spec) every job runs in this process; otherwise the specs
are dispatched in auto-sized chunks to a ``ProcessPoolExecutor``.
The executor owns that pool: it forks it on its first pooled run, keeps
its workers for later runs and reaps them in :meth:`Executor.close`.

Because every job derives its randomness from ``(seed_root,
seed_path)`` alone (see :mod:`repro.engine.jobs`), and every worker
runs its jobs at the OpenBLAS thread count of the process that
dispatched them, the worker count changes only wall-clock time —
results are bit-identical to the in-process path for any number of
workers.  The thread count has to match for that: OpenBLAS splits some
kernels (``A @ A.T``, LU) by thread, so their last bits depend on it.
The in-process path leaves the count alone, so a pool of ``N`` workers
runs up to ``N`` times that many BLAS threads; ``OPENBLAS_NUM_THREADS=1``
keeps them within the CPUs (see the engine guide).

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

import ctypes
import functools
import os
import pathlib
import time
import weakref
from concurrent.futures import Future
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.engine.jobs import (
    JobResult,
    JobSpec,
    execute_job,
    failed_result,
    resolve_task,
)
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
    blas_threads: int | None,
) -> list[JobResult]:
    """Worker-side batch loop (module-level so the pool can pickle it).

    The jobs run at ``blas_threads``, the dispatching process's OpenBLAS
    thread count.  When the parent is tracing, each job runs under a
    fresh worker-side recorder and its span fragment rides back on the
    result for adoption into the parent trace.
    """
    _set_blas_threads(blas_threads)
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


@functools.cache
def _openblas() -> tuple[Any, Any] | None:
    """The get and set thread-count functions of numpy's bundled OpenBLAS.

    ``None`` where numpy ships no scipy-openblas library exporting them
    (numpy built against another BLAS, or a platform without ``.so``
    libraries); there the thread count is neither read nor changed.
    """
    import numpy

    libs = pathlib.Path(numpy.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        getter = getattr(library, "scipy_openblas_get_num_threads64_", None)
        setter = getattr(library, "scipy_openblas_set_num_threads64_", None)
        if getter is not None and setter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return getter, setter
    return None


def _blas_threads() -> int | None:
    """This process's live OpenBLAS thread count (``None``: unreadable)."""
    functions = _openblas()
    return None if functions is None else int(functions[0]())


def _set_blas_threads(count: int | None) -> None:
    """Set this process's OpenBLAS thread count to ``count``.

    A no-op for ``None`` (the dispatching process could not read its
    count) and without a readable OpenBLAS.
    """
    functions = _openblas()
    if count is None or functions is None:
        return
    get, set_ = functions
    if get() != count:
        set_(count)


def _init_worker() -> None:
    """Pool initializer: start the worker untraced.

    A worker forked during a traced run inherits the parent's active
    recorder and its open stream; a chunk traces only when the parent
    says so (see :func:`_execute_chunk`), into a recorder of its own.
    """
    trace._ACTIVE = None


def _import_tasks(specs: Sequence[JobSpec]) -> None:
    """Import what the pool's jobs run, once, before the workers fork.

    A forked worker inherits the parent's modules, so resolving each
    distinct task of the run that forks the pool (and loading
    ``numpy.random``, which :func:`~repro.engine.jobs.derive_rng` needs)
    spares every worker importing them itself.  A task that a later run
    on the same pool brings is resolved by the workers, on the job path,
    as :func:`~repro.engine.jobs.resolve_task` always does.  A task that
    cannot be resolved is left to the job path, which reports it as it
    always has.
    """
    import numpy.random  # noqa: F401

    for task in dict.fromkeys(spec.task for spec in specs):
        try:
            resolve_task(task)
        except Exception:  # the job path reports it, in its own way
            pass


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

    The pool is forked on the first pooled run, with
    ``min(workers, chunks)`` workers, and kept for later runs; a run
    that needs more workers than it has replaces it.  :meth:`close`
    reaps the workers, and so does dropping the last reference to the
    executor or leaving the interpreter.  A pool that breaks (a worker
    died) or that an exception leaves mid-run (a raising callback,
    ``KeyboardInterrupt``) is shut down, and the next run forks a fresh
    one.

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
        if (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 0
        ):
            raise ValidationError(
                f"workers must be a positive int (or 0 for auto), "
                f"got {workers!r}"
            )
        self.workers = workers if workers else default_worker_count()
        self._pool: _ProcessPool | None = None
        self._pool_size = 0
        # Shuts the pool down when this executor is collected, so a
        # dropped executor reaps its workers before the caller goes on.
        self._release: Callable[[], object] | None = None

    def _chunk_for(self, n_jobs: int) -> int:
        return max(1, min(16, -(-n_jobs // (4 * self.workers))))

    def _pool_for(self, size: int, specs: Sequence[JobSpec]) -> _ProcessPool:
        """The live pool, forked (or replaced by a larger one) on demand."""
        if self._pool is None or self._pool_size < size:
            self.close()
            _import_tasks(specs)
            self._pool = _ProcessPool(max_workers=size, initializer=_init_worker)
            self._pool_size = size
            self._release = weakref.finalize(
                self, self._pool.shutdown, True, cancel_futures=True
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down and wait for its workers to exit.

        Harmless without a pool and when called twice; a later pooled
        run forks a fresh pool.
        """
        self._pool = None
        if self._release is not None:
            self._release()

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
        broken = False
        traced = trace.enabled()
        blas_threads = _blas_threads()
        size = min(self.workers, len(chunks))

        def submit(pool: _ProcessPool) -> dict[Future[Any], int]:
            return {
                pool.submit(
                    _execute_chunk,
                    batch,
                    traced,
                    time.time(),
                    fail_fast,
                    blas_threads,
                ): index
                for index, batch in enumerate(chunks)
            }

        try:
            try:
                futures = submit(self._pool_for(size, specs))
            except BrokenProcessPool:
                # A worker died while the pool sat idle between runs.
                self.close()
                futures = submit(self._pool_for(size, specs))
            # Harvest in completion order so every finished chunk
            # reaches the callback (and thus the cache) even when
            # another chunk fails; the failure is re-raised only after
            # the drain.
            for future in as_completed(futures):
                index = futures[future]
                try:
                    batch_results = future.result()
                except Exception as exc:
                    broken = broken or isinstance(exc, BrokenProcessPool)
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
        except BaseException:
            self.close()
            raise
        if broken:
            self.close()
        if first_error is not None:
            raise first_error
        return [
            result for batch in chunk_results for result in batch  # type: ignore[union-attr]
        ]

    def __repr__(self) -> str:
        return f"Executor(workers={self.workers})"
