"""Serializable job descriptions and the worker-side execution function.

A :class:`JobSpec` describes one unit of experiment work — typically a
single (sweep-point, trial) pipeline run — in a form that is picklable
(for process pools), hashable (for the result cache), and reproducible
(for bit-identical reruns).

Determinism contract
--------------------
A job's randomness is fully determined by ``(seed_root, seed_path)``.
The worker derives its generator as::

    numpy.random.default_rng(SeedSequence(seed_root, spawn_key=seed_path))

``SeedSequence`` children are defined by ``spawn_key`` alone, so this is
*exactly* the generator that ``spawn_generators(seed_root, n)[i].spawn(t)[j]``
would have produced for ``seed_path == (i, j)`` — the derivation the
serial runners have always used.  Consequently results are bit-identical
regardless of worker count, chunking, or execution order, and extending
a sweep never reshuffles the streams of existing points.

Tasks are referenced by an importable ``"package.module:function"``
string rather than a callable, so a spec can be executed in a worker
process that has not imported the experiment module yet, and so the
cache key covers the task identity.  A task has the signature
``task(params: dict, rng: numpy.random.Generator | None) -> dict`` and
must return a JSON-serializable mapping; tasks that manage their own
seeding (e.g. the ablations, which embed explicit integer seeds in
``params``) use specs with ``seed_root=None`` and receive ``rng=None``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import __version__ as _PACKAGE_VERSION
from repro.exceptions import JobExecutionError, ValidationError

__all__ = [
    "CACHE_VERSION",
    "TaskFunction",
    "JobSpec",
    "JobResult",
    "derive_rng",
    "resolve_task",
    "execute_job",
    "failed_result",
]

#: Cache-format version; bumping it (or releasing a new package
#: version — both participate in the cache key) invalidates every
#: previously cached result.  Code changes within one release are NOT
#: detected, so clear the cache (or use ``--no-cache``) when editing
#: pipeline internals locally.
CACHE_VERSION = 3

#: Signature every engine task implements: ``task(params, rng) -> payload``.
#: ``rng`` is ``None`` for self-seeding tasks (``seed_root=None`` specs).
TaskFunction = Callable[
    [dict[str, Any], "np.random.Generator | None"], dict[str, Any]
]


def _canonical_json(payload: Any) -> str:
    """Deterministic JSON used for hashing; rejects non-JSON values."""
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"value is not JSON-serializable: {exc}"
        ) from exc


@dataclass(frozen=True)
class JobSpec:
    """One reproducible unit of work.

    Attributes
    ----------
    task:
        Importable ``"package.module:function"`` reference.
    params:
        JSON-serializable keyword payload handed to the task verbatim.
        Plain Python scalars/lists/dicts only — convert arrays with
        ``.tolist()`` before building the spec.
    seed_root:
        Root seed of the experiment, or ``None`` when the task seeds
        itself from ``params``.
    seed_path:
        ``SeedSequence`` spawn key relative to the root, e.g.
        ``(point_index, trial_index)``.
    """

    task: str
    params: dict[str, Any] = field(default_factory=dict)
    seed_root: int | None = None
    seed_path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.task, str) or self.task.count(":") != 1:
            raise ValidationError(
                "task must be a 'package.module:function' string, got "
                f"{self.task!r}"
            )
        if self.seed_root is not None and (
            not isinstance(self.seed_root, (int, np.integer))
            or self.seed_root < 0
        ):
            raise ValidationError(
                f"seed_root must be None or a non-negative int, got "
                f"{self.seed_root!r}"
            )
        path = tuple(int(step) for step in self.seed_path)
        if any(step < 0 for step in path):
            raise ValidationError(f"seed_path must be non-negative, got {path}")
        object.__setattr__(self, "seed_path", path)
        # Fail fast (and in the parent process) on unhashable params.
        _canonical_json(self.params)

    def key(self) -> str:
        """Content-addressed identity: the SHA-256 of the canonical spec.

        Two specs share a key iff they run the same task with the same
        parameters and the same derived random stream, so a key hit in
        the cache is a completed, bit-identical copy of this job.
        """
        blob = _canonical_json(
            {
                "version": CACHE_VERSION,
                "package": _PACKAGE_VERSION,
                "task": self.task,
                "params": self.params,
                "seed_root": self.seed_root,
                "seed_path": list(self.seed_path),
            }
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobResult:
    """Outcome of one executed (or cache-recovered) job.

    Attributes
    ----------
    key:
        The producing spec's :meth:`JobSpec.key`.
    values:
        The task's JSON-serializable return payload.
    duration:
        Wall-clock seconds the task took (the *original* execution time
        for cached results).
    cached:
        True when the result was served from the cache without running.
    trace:
        Serialized telemetry fragment recorded while the job ran in a
        worker process (see :meth:`repro.telemetry.recorder.Recorder.
        export_fragment`); ``None`` when tracing was disabled, for
        cache hits, and for in-process execution (whose spans reach the
        parent recorder directly).  Never cached.
    error:
        ``None`` for a successful job.  For a job that failed under a
        ``fail_fast=False`` run: ``{"type": ..., "message": ...,
        "traceback": ...}`` — the original exception class name, its
        message, and the worker-side formatted traceback string (which
        would otherwise be lost crossing the process boundary).  Failed
        results are never written to the cache.
    """

    key: str
    values: dict[str, Any]
    duration: float
    cached: bool = False
    trace: dict[str, Any] | None = None
    error: dict[str, Any] | None = None

    @property
    def failed(self) -> bool:
        """True when this job raised instead of returning a payload."""
        return self.error is not None


def derive_rng(spec: JobSpec) -> np.random.Generator | None:
    """Build the job's generator from its seed coordinates.

    Returns ``None`` for self-seeding specs (``seed_root is None``).
    See the module docstring for the equivalence with the historical
    ``spawn_generators`` tree.
    """
    if spec.seed_root is None:
        return None
    sequence = np.random.SeedSequence(
        entropy=int(spec.seed_root), spawn_key=spec.seed_path
    )
    return np.random.default_rng(sequence)


def resolve_task(task: str) -> TaskFunction:
    """Import and return the callable a task string names."""
    module_name, _, attribute = task.partition(":")
    try:
        module = importlib.import_module(module_name)
        function = getattr(module, attribute)
    except (ImportError, AttributeError) as exc:
        raise ValidationError(f"cannot resolve task {task!r}: {exc}") from exc
    if not callable(function):
        raise ValidationError(f"task {task!r} is not callable")
    return function


def failed_result(
    spec: JobSpec, exc: BaseException, traceback: str | None = None
) -> JobResult:
    """A failed :class:`JobResult` for ``spec`` (``fail_fast=False`` path).

    The original exception's type, message, and formatted traceback
    string are preserved on :attr:`JobResult.error` — a
    :class:`JobExecutionError` contributes the worker-side traceback it
    carries when no explicit one is given.
    """
    if traceback is None:
        traceback = getattr(exc, "traceback", None)
    return JobResult(
        key=spec.key(),
        values={},
        duration=0.0,
        error={
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback,
        },
    )


def execute_job(spec: JobSpec, *, fail_fast: bool = True) -> JobResult:
    """Run one job to completion (the function process-pool workers call).

    Parameters
    ----------
    spec:
        The job to execute.
    fail_fast:
        With the default ``True``, task exceptions re-raise as
        :class:`JobExecutionError` with a flat, picklable message and
        the formatted original traceback, so failures propagate cleanly
        across process boundaries.  With ``False``, the exception is
        captured on a failed :class:`JobResult` instead (see
        :func:`failed_result`) and the caller's sweep keeps draining.
    """
    try:
        function = resolve_task(spec.task)
        rng = derive_rng(spec)
    except Exception as exc:
        # Setup failures (an unresolvable task) are caller bugs, not
        # task failures: they propagate raw so misconfigured sweeps
        # fail loudly.  Drain mode still converts them, keeping the
        # rest of the grid alive.
        if not fail_fast:
            return failed_result(spec, exc, traceback=_traceback.format_exc())
        raise
    # The clock reads below measure JobResult.duration only; the value
    # never reaches the payload or JobSpec.key().
    start = time.perf_counter()  # repro: ignore[wall-clock] duration metric
    try:
        values = function(spec.params, rng)
    except Exception as exc:
        original = _traceback.format_exc()
        if not fail_fast:
            return failed_result(spec, exc, traceback=original)
        raise JobExecutionError(
            f"job {spec.key()[:12]} ({spec.task}, seed_path="
            f"{spec.seed_path}) failed: {type(exc).__name__}: {exc}",
            traceback=original,
        ) from exc
    duration = time.perf_counter() - start  # repro: ignore[wall-clock] duration metric
    try:
        if not isinstance(values, dict):
            raise JobExecutionError(
                f"task {spec.task} returned {type(values).__name__}, "
                "expected a JSON-serializable dict"
            )
        try:
            _canonical_json(values)
        except ValidationError as exc:
            raise JobExecutionError(
                f"task {spec.task} returned a non-JSON-serializable "
                f"payload: {exc}"
            ) from exc
    except JobExecutionError as exc:
        if not fail_fast:
            return failed_result(spec, exc, traceback=_traceback.format_exc())
        raise
    return JobResult(key=spec.key(), values=values, duration=duration)
