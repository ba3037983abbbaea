"""The front door: run a spec (object, dict, or JSON file) end to end.

:func:`run_spec` compiles an :class:`~repro.api.spec.ExperimentSpec`
into engine jobs, executes them (in process or on a worker pool, cached
or not — all of the engine's machinery applies untouched), and
aggregates the payloads into an
:class:`~repro.api.result.ExperimentResult`.  :func:`build_engine` is
the one place that maps the common knobs — worker count, cache,
progress, failure mode — onto an :class:`~repro.engine.Engine`; the CLI
goes through it too.

:class:`Experiment` is the object-shaped facade over the same path,
with ``from_json`` / ``from_file`` constructors for specs stored as
JSON documents.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any

from repro.api.result import ExperimentResult
from repro.api.spec import ExperimentSpec
from repro.engine import Engine, Executor, ResultCache
from repro.engine.jobs import JobSpec
from repro.engine.progress import ProgressReporter
from repro.exceptions import ValidationError

__all__ = ["Experiment", "build_engine", "run_spec"]


def build_engine(
    *,
    jobs: int = 1,
    cache: ResultCache | bool | str | os.PathLike[str] | None = False,
    progress: ProgressReporter | None = None,
    fail_fast: bool = True,
) -> Engine:
    """An engine from the common knobs.

    Parameters
    ----------
    jobs:
        Worker count: ``1`` runs in-process, any other value a process
        pool of that size (``0`` = autodetect).  Results are
        bit-identical either way.
    cache:
        ``False``/``None`` (default) disables on-disk caching — the
        same default as ``run_spec(spec)`` with no keywords, so adding
        ``jobs=`` or ``progress=`` never silently turns persistence on.
        ``True`` selects the default cache directory; a path or a ready
        :class:`ResultCache` selects a specific one.
    progress:
        Optional :class:`~repro.engine.progress.ProgressReporter`.
    fail_fast:
        ``True`` (default) raises on the first job failure; ``False``
        drains the grid, surfacing failures as failed
        :class:`~repro.engine.jobs.JobResult` objects.
    """
    if cache is True:
        result_cache = ResultCache()
    elif cache is False or cache is None:
        result_cache = None
    elif isinstance(cache, ResultCache):
        result_cache = cache
    else:
        result_cache = ResultCache(cache)
    return Engine(
        executor=Executor(workers=jobs),
        cache=result_cache,
        progress=progress,
        fail_fast=fail_fast,
    )


def _coerce_spec(spec: Any) -> ExperimentSpec:
    if isinstance(spec, ExperimentSpec):
        return spec
    if isinstance(spec, dict):
        return ExperimentSpec.from_dict(spec)
    if isinstance(spec, (str, os.PathLike)):
        return ExperimentSpec.from_file(spec)
    raise ValidationError(
        "run_spec expects an ExperimentSpec, a spec dict, or a path to a "
        f"spec JSON file; got {type(spec).__name__}"
    )


def run_spec(
    spec: Any, *, engine: Engine | None = None, **engine_kwargs: Any
) -> ExperimentResult:
    """Execute an experiment spec and return its structured result.

    Parameters
    ----------
    spec:
        An :class:`ExperimentSpec`, a plain spec dict, or a path to a
        spec JSON file.
    engine:
        A preconfigured engine; mutually exclusive with the keyword
        shortcuts below.
    engine_kwargs:
        ``jobs`` / ``cache`` / ``progress`` / ``fail_fast`` forwarded to
        :func:`build_engine` when no engine is given.
    """
    if engine is not None and engine_kwargs:
        raise ValidationError(
            "pass either a prebuilt 'engine' or engine keywords, not both"
        )
    experiment_spec = _coerce_spec(spec)
    if engine is None:
        engine = build_engine(**engine_kwargs)
    results = engine.run(experiment_spec.compile_jobs())
    return ExperimentResult.from_job_results(experiment_spec, results)


class Experiment:
    """Object facade: a spec plus the engine configuration to run it.

    >>> from repro.api import Experiment
    >>> experiment = Experiment.from_file("examples/specs/mini.json")
    >>> result = experiment.run()          # doctest: +SKIP
    """

    def __init__(self, spec: Any, *, engine: Engine | None = None) -> None:
        self.spec = _coerce_spec(spec)
        self.engine = engine

    @classmethod
    def from_dict(cls, payload: dict[str, Any], **kwargs: Any) -> "Experiment":
        """From a plain spec dict."""
        return cls(ExperimentSpec.from_dict(payload), **kwargs)

    @classmethod
    def from_json(cls, text: str, **kwargs: Any) -> "Experiment":
        """From a JSON spec document."""
        return cls(ExperimentSpec.from_json(text), **kwargs)

    @classmethod
    def from_file(
        cls, path: str | os.PathLike[str], **kwargs: Any
    ) -> "Experiment":
        """From a ``*.json`` spec file."""
        return cls(ExperimentSpec.from_file(pathlib.Path(path)), **kwargs)

    @property
    def name(self) -> str:
        """The spec's experiment name."""
        return self.spec.name

    def jobs(self) -> list[JobSpec]:
        """The engine jobs this experiment compiles to."""
        return self.spec.compile_jobs()

    def run(
        self, *, engine: Engine | None = None, **engine_kwargs: Any
    ) -> ExperimentResult:
        """Execute and aggregate (see :func:`run_spec`)."""
        chosen = engine if engine is not None else self.engine
        if chosen is not None and engine_kwargs:
            raise ValidationError(
                "pass either a prebuilt 'engine' or engine keywords, "
                "not both"
            )
        return run_spec(self.spec, engine=chosen, **engine_kwargs)

    def __repr__(self) -> str:
        return f"Experiment({self.spec!r})"
