"""Benchmark registry: named, taggable timing cases.

A benchmark is registered as a *setup factory*: calling it builds the
workload (data generation, object construction — everything that should
not be timed) and returns the zero-argument callable the runner times.
Registration is declarative so the CLI can list, filter, and run cases
without importing anything beyond :mod:`repro.bench`.

Naming convention
-----------------
``<group>.<path>.<variant>`` — e.g. ``hotpath.em_recon.large`` or
``telemetry.span_overhead.smoke``.  The ``smoke`` variants finish in
well under a second each and are what CI runs (``repro bench --filter
smoke``); ``large`` variants run at ``n_records >= 10^5``.  The figure
pipelines are not cases here: ``perfbench`` times them end to end.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.exceptions import ValidationError

__all__ = ["BenchmarkCase", "register_benchmark", "iter_benchmarks", "all_benchmarks"]

#: Registry of benchmark cases keyed by full name, in registration order.
_REGISTRY: dict[str, "BenchmarkCase"] = {}


@dataclass(frozen=True)
class BenchmarkCase:
    """A registered benchmark.

    Attributes
    ----------
    name:
        Full dotted name, e.g. ``"hotpath.em_recon.smoke"``.
    group:
        Coarse family — ``"hotpath"`` for micro-benchmarks of a single
        numerical routine, ``"telemetry"`` for tracing-overhead cases.
    setup:
        Zero-argument factory returning the callable to time.  Invoked
        once per benchmark run, outside the timed region.
    tags:
        Free-form labels used by ``--filter`` (e.g. ``"smoke"``,
        ``"large"``, ``"vectorized-pr3"``).
    params:
        Workload parameters recorded verbatim in the JSON payload so a
        timing is never divorced from the size it was measured at.
    repeat:
        Per-case override of the runner's repeat count; ``None`` defers
        to the runner.  Long ``large`` cases set this to keep the full
        suite's wall-clock sane.
    """

    name: str
    group: str
    setup: Callable[[], Callable[[], object]]
    tags: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    repeat: int | None = None

    def matches(self, token: str) -> bool:
        """True when ``token`` is a substring of the name or an exact tag."""
        return token in self.name or token in self.tags


def register_benchmark(
    name: str,
    *,
    group: str,
    tags: Iterable[str] = (),
    params: dict | None = None,
    repeat: int | None = None,
):
    """Decorator registering ``setup`` as a benchmark case.

    Parameters
    ----------
    name:
        Unique dotted name for the case.
    group:
        ``"hotpath"`` or ``"telemetry"`` (free-form, but those are the
        two the built-in suite uses).
    tags:
        Filter labels; every case should carry ``"smoke"`` or
        ``"large"`` so CI and acceptance runs can select by cost.
    params:
        Workload-size metadata stored with every timing.
    repeat:
        Optional per-case repeat override (see :class:`BenchmarkCase`).
    """
    tag_tuple = tuple(tags)

    def decorate(setup: Callable[[], Callable[[], object]]):
        if name in _REGISTRY:
            raise ValidationError(f"benchmark {name!r} is already registered")
        _REGISTRY[name] = BenchmarkCase(
            name=name,
            group=group,
            setup=setup,
            tags=tag_tuple,
            params=dict(params or {}),
            repeat=repeat,
        )
        return setup

    return decorate


def all_benchmarks() -> list[BenchmarkCase]:
    """Every registered case, in registration order."""
    return list(_REGISTRY.values())


def iter_benchmarks(filter_token: str | None = None) -> list[BenchmarkCase]:
    """Cases whose name or tags match ``filter_token`` (all when None)."""
    cases = all_benchmarks()
    if filter_token is None:
        return cases
    return [case for case in cases if case.matches(filter_token)]
