"""Rules guarding the seeded-randomness and clock-free determinism contract.

Every result this repository publishes is derived from an explicit
``numpy.random.Generator`` rooted in a ``SeedSequence`` (see
:mod:`repro.engine.jobs`).  Randomness drawn from hidden global state or
values read from the wall clock break bit-identical replay — and, when
they reach cache-key code, silently poison the content-addressed result
cache.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Finding, ModuleContext, Rule, register_rule

__all__ = ["GlobalRngRule", "WallClockRule"]

#: numpy.random attributes that are part of the explicit-Generator API
#: (everything else is the legacy global-state / RandomState surface).
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: stdlib ``random`` attributes that do not touch the module-level
#: Mersenne Twister.  ``Random`` instances are still discouraged (use
#: numpy Generators) but are at least explicitly seeded and local.
_STDLIB_RANDOM_ALLOWED = frozenset({"Random"})


class _ImportTracker(ast.NodeVisitor):
    """Collect local names bound to numpy, numpy.random, and random."""

    def __init__(self) -> None:
        self.numpy_names: set[str] = set()
        self.numpy_random_names: set[str] = set()
        self.stdlib_random_names: set[str] = set()
        self.bad_imports: list[tuple[ast.AST, str]] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy":
                self.numpy_names.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname is not None:
                    self.numpy_random_names.add(alias.asname)
                else:
                    self.numpy_names.add("numpy")
            elif alias.name == "random":
                self.stdlib_random_names.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.numpy_random_names.add(alias.asname or "random")
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _NUMPY_RANDOM_ALLOWED:
                    self.bad_imports.append(
                        (node, f"numpy.random.{alias.name}")
                    )
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in _STDLIB_RANDOM_ALLOWED:
                    self.bad_imports.append((node, f"random.{alias.name}"))
        self.generic_visit(node)


@register_rule("global-rng")
class GlobalRngRule(Rule):
    """Randomness must flow from an explicit Generator parameter."""

    title = "global-state RNG call (np.random.* / stdlib random.*)"
    severity = "error"
    rationale = (
        "Randomness drawn from hidden module-level state cannot be "
        "replayed: the engine's bit-identical-for-any-worker-count "
        "guarantee holds only because every stream is derived from an "
        "explicit SeedSequence (seed_root, seed_path).  A single "
        "np.random.* call anywhere in a job makes results depend on "
        "import order and scheduling."
    )
    hint = (
        "Thread an explicit numpy.random.Generator parameter through "
        "(rng=np.random.default_rng(seed) at the boundary; "
        "repro.utils.rng helpers derive child streams)."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        tracker = _ImportTracker()
        tracker.visit(context.tree)
        for node, name in tracker.bad_imports:
            yield self.finding(
                context,
                node,
                f"import of global-state RNG symbol {name}; use an "
                "explicit numpy.random.Generator instead",
            )
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Attribute):
                continue
            target = self._resolve(node, tracker)
            if target is not None:
                yield self.finding(
                    context,
                    node,
                    f"{target} uses process-global RNG state; all "
                    "randomness must flow from an explicit Generator/"
                    "SeedSequence parameter",
                )

    def _resolve(
        self, node: ast.Attribute, tracker: _ImportTracker
    ) -> str | None:
        value = node.value
        # np.random.<attr> / numpy.random.<attr>
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in tracker.numpy_names
        ):
            if node.attr not in _NUMPY_RANDOM_ALLOWED:
                return f"np.random.{node.attr}"
            return None
        if isinstance(value, ast.Name):
            # <numpy.random alias>.<attr>
            if value.id in tracker.numpy_random_names:
                if node.attr not in _NUMPY_RANDOM_ALLOWED:
                    return f"numpy.random.{node.attr}"
                return None
            # stdlib random.<attr>
            if value.id in tracker.stdlib_random_names:
                if node.attr not in _STDLIB_RANDOM_ALLOWED:
                    return f"random.{node.attr}"
        return None


#: ``time`` attributes that read a clock.
_CLOCK_CALLS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: ``datetime.datetime`` / ``datetime.date`` constructors reading a clock.
_DATETIME_CALLS = frozenset({"now", "utcnow", "today"})


@register_rule("wall-clock")
class WallClockRule(Rule):
    """No clock reads in kernel or cache-key code."""

    title = "wall-clock read in kernel/cache-key code"
    severity = "error"
    rationale = (
        "Numerical kernels and the modules that compute cache keys must "
        "be pure functions of their inputs.  A clock read in a kernel "
        "makes reruns non-identical; one that leaks into a cache key "
        "makes every run a cache miss (or, worse, lets two different "
        "computations collide).  Timing belongs in the telemetry layer "
        "(repro.telemetry spans), not in the kernels it observes.  The "
        "trace diff is held to the same bar: it is a pure function of "
        "the two traces it compares."
    )
    hint = (
        "Move timing to repro.telemetry spans around the call site, or "
        "suppress with a justification when the value measures duration "
        "and provably never reaches a payload or cache key."
    )
    scope = (
        "repro.stats",
        "repro.reconstruction",
        "repro.linalg",
        "repro.randomization",
        "repro.metrics",
        "repro.mining",
        "repro.engine.jobs",
        "repro.engine.cache",
        "repro.telemetry.diff",
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        time_names: set[str] = set()
        datetime_types: set[str] = set()
        clock_functions: set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_names.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_types.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _CLOCK_CALLS:
                            clock_functions.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_types.add(alias.asname or alias.name)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in clock_functions:
                yield self.finding(
                    context,
                    node,
                    f"clock read {func.id}() in deterministic code",
                )
            elif isinstance(func, ast.Attribute):
                value = func.value
                if (
                    isinstance(value, ast.Name)
                    and value.id in time_names
                    and func.attr in _CLOCK_CALLS
                ):
                    yield self.finding(
                        context,
                        node,
                        f"clock read time.{func.attr}() in deterministic "
                        "code",
                    )
                elif func.attr in _DATETIME_CALLS and self._is_datetime(
                    value, datetime_types
                ):
                    yield self.finding(
                        context,
                        node,
                        f"clock read datetime .{func.attr}() in "
                        "deterministic code",
                    )

    @staticmethod
    def _is_datetime(value: ast.expr, datetime_types: set[str]) -> bool:
        # datetime.now() via `from datetime import datetime`.
        if isinstance(value, ast.Name) and value.id in datetime_types:
            return True
        # datetime.datetime.now() via `import datetime`.
        return (
            isinstance(value, ast.Attribute)
            and value.attr in ("datetime", "date")
            and isinstance(value.value, ast.Name)
            and value.value.id in datetime_types
        )
