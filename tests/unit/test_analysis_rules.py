"""Per-rule fixture tests: triggering, clean, and suppressed snippets.

Each rule gets (at least) three fixtures written into a temporary
package tree so scoped rules see a realistic dotted module name:

* a *triggering* snippet that must produce exactly the expected finding,
* a *clean* snippet exercising the sanctioned alternative, and
* the triggering snippet with an inline ``# repro: ignore[...]``, which
  must mark the finding suppressed (and therefore pass the check).
"""

import textwrap

from repro.analysis import run_check


def check_snippet(tmp_path, source, *, module="snippet", rules=None):
    """Write ``source`` at the package location ``module`` and check it."""
    parts = module.split(".")
    directory = tmp_path
    for part in parts[:-1]:
        directory = directory / part
        directory.mkdir(exist_ok=True)
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("")
    path = directory / f"{parts[-1]}.py"
    path.write_text(textwrap.dedent(source))
    return run_check([path], rules=rules)


def fired(report, rule):
    """Active (unsuppressed) findings of one rule."""
    return [f for f in report.active if f.rule == rule]


class TestGlobalRng:
    def test_np_random_module_call_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import numpy as np

            values = np.random.rand(4)
            """,
        )
        (finding,) = fired(report, "global-rng")
        assert "np.random.rand" in finding.message
        assert finding.severity == "error"
        assert not report.ok

    def test_bad_from_import_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from numpy.random import normal

            values = normal(size=4)
            """,
        )
        assert fired(report, "global-rng")

    def test_stdlib_random_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import random

            value = random.random()
            """,
        )
        (finding,) = fired(report, "global-rng")
        assert "random.random" in finding.message

    def test_explicit_generator_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import numpy as np

            rng = np.random.default_rng(np.random.SeedSequence(7))
            values = rng.random(4)
            """,
        )
        assert not fired(report, "global-rng")
        assert report.ok

    def test_suppression_covers_the_line(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import numpy as np

            values = np.random.rand(4)  # repro: ignore[global-rng] legacy demo
            """,
        )
        assert not fired(report, "global-rng")
        assert len(report.suppressed) == 1
        assert report.ok


class TestWallClock:
    TRIGGER = """
    import time

    def kernel(x):
        return x + time.perf_counter()
    """

    def test_clock_in_scoped_module_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path, self.TRIGGER, module="repro.stats.snippet"
        )
        (finding,) = fired(report, "wall-clock")
        assert "time.perf_counter" in finding.message

    def test_from_import_and_datetime_trigger(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from datetime import datetime
            from time import monotonic

            def kernel():
                return monotonic(), datetime.now()
            """,
            module="repro.linalg.snippet",
        )
        assert len(fired(report, "wall-clock")) == 2

    def test_out_of_scope_module_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, self.TRIGGER, module="scripts.timer")
        assert not fired(report, "wall-clock")

    def test_clockless_kernel_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def kernel(x):
                return 2.0 * x
            """,
            module="repro.stats.snippet",
        )
        assert report.ok

    def test_suppression(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import time

            def kernel(x):
                start = time.perf_counter()  # repro: ignore[wall-clock] timing
                return x, start
            """,
            module="repro.stats.snippet",
        )
        assert not fired(report, "wall-clock")
        assert report.suppressed

    def test_exporter_module_in_scope(self, tmp_path):
        # The run-health modules carry kernel-grade clock discipline:
        # a direct time read in the exporter is a finding.
        report = check_snippet(
            tmp_path, self.TRIGGER, module="repro.telemetry.exporter"
        )
        assert fired(report, "wall-clock")

    def test_sampler_module_in_scope(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from time import monotonic

            def sample():
                return monotonic()
            """,
            module="repro.telemetry.sampler",
        )
        assert fired(report, "wall-clock")

    def test_diff_and_history_modules_in_scope(self, tmp_path):
        for module in (
            "repro.telemetry.diff",
            "repro.telemetry.history",
        ):
            report = check_snippet(tmp_path, self.TRIGGER, module=module)
            assert fired(report, "wall-clock"), module

    def test_clock_shim_module_is_exempt(self, tmp_path):
        # The _clock shims are the sanctioned touch point: direct reads
        # there are the whole point and must not fire.
        report = check_snippet(
            tmp_path,
            """
            import time

            def wall_now():
                return time.time()
            """,
            module="repro.telemetry._clock",
        )
        assert not fired(report, "wall-clock")

    def test_runhealth_clean_via_shims(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.telemetry._clock import mono_now, wall_now

            def snapshot():
                return {"ts_unix": wall_now(), "mono": mono_now()}
            """,
            module="repro.telemetry.exporter",
        )
        assert not fired(report, "wall-clock")
        assert report.ok


class TestNdarrayEq:
    def test_frozen_dataclass_with_array_field_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            import numpy as np

            @dataclass(frozen=True)
            class Point:
                values: np.ndarray
            """,
        )
        (finding,) = fired(report, "ndarray-eq")
        assert "Point" in finding.message

    def test_eq_false_with_custom_eq_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            import numpy as np

            @dataclass(frozen=True, eq=False)
            class Point:
                values: np.ndarray

                def __eq__(self, other):
                    if not isinstance(other, Point):
                        return NotImplemented
                    return bool((self.values == other.values).all())
            """,
        )
        assert report.ok

    def test_compare_false_field_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from dataclasses import dataclass, field

            import numpy as np

            @dataclass(frozen=True)
            class Point:
                name: str
                values: np.ndarray = field(compare=False, repr=False)
            """,
        )
        assert report.ok

    def test_plain_fields_are_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Point:
                x: float
                y: float
            """,
        )
        assert report.ok

    def test_suppression_on_class_line(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            import numpy as np

            @dataclass(frozen=True)
            class Point:  # repro: ignore[ndarray-eq] prototype container
                values: np.ndarray
            """,
        )
        assert not fired(report, "ndarray-eq")
        assert report.suppressed


class TestTaskPickle:
    def test_module_level_lambda_in_tasks_module_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            double = lambda params, rng: {"x": 2 * params["x"]}
            """,
            module="repro.experiments.tasks",
        )
        assert fired(report, "task-pickle")

    def test_global_statement_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            _CACHE = {}

            def warm(params, rng):
                global _CACHE
                _CACHE = dict(params)
                return _CACHE
            """,
            module="repro.experiments.tasks",
        )
        assert fired(report, "task-pickle")

    def test_factory_returning_closure_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def make_task(scale):
                def task(params, rng):
                    return {"x": scale * params["x"]}
                return task
            """,
            module="repro.experiments.tasks",
        )
        assert fired(report, "task-pickle")

    def test_plain_module_level_task_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def double(params, rng):
                return {"x": 2 * params["x"]}
            """,
            module="repro.experiments.tasks",
        )
        assert report.ok

    def test_non_tasks_module_is_out_of_scope(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            double = lambda params, rng: {"x": 2 * params["x"]}
            """,
            module="repro.experiments.helpers",
        )
        assert not fired(report, "task-pickle")

    def test_suppression(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            double = lambda p, r: {}  # repro: ignore[task-pickle] serial only
            """,
            module="repro.experiments.tasks",
        )
        assert not fired(report, "task-pickle")
        assert report.suppressed


class TestMutableDefault:
    def test_list_literal_default_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def collect(values=[]):
                return values
            """,
        )
        (finding,) = fired(report, "mutable-default")
        assert "collect" in finding.message

    def test_bare_dict_call_and_kwonly_trigger(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def configure(options=dict(), *, extras=[]):
                return options, extras
            """,
        )
        assert len(fired(report, "mutable-default")) == 2

    def test_none_default_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def collect(values=None):
                return [] if values is None else values
            """,
        )
        assert report.ok

    def test_private_function_is_exempt(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def _collect(values=[]):
                return values
            """,
        )
        assert not fired(report, "mutable-default")

    def test_suppression(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def collect(values=[]):  # repro: ignore[mutable-default] read-only
                return values
            """,
        )
        assert not fired(report, "mutable-default")
        assert report.suppressed


class TestFloatEq:
    def test_equality_against_float_literal_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def degenerate(x):
                return x == 0.5
            """,
        )
        (finding,) = fired(report, "float-eq")
        assert finding.severity == "warning"
        assert "0.5" in finding.message

    def test_negative_literal_and_noteq_trigger(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def check(x, y):
                return x != -1.0 or y == 2.5
            """,
        )
        assert len(fired(report, "float-eq")) == 2

    def test_tolerance_comparison_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def degenerate(x):
                return abs(x - 0.5) < 1e-12
            """,
        )
        assert report.ok

    def test_nan_idiom_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def is_nan(x):
                return x != x
            """,
        )
        assert report.ok

    def test_integer_equality_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def check(n):
                return n == 0
            """,
        )
        assert report.ok

    def test_test_modules_are_exempt(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def helper(x):
                assert x == 0.5
            """,
            module="test_exact",
        )
        assert not fired(report, "float-eq")

    def test_suppression(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def degenerate(x):
                return x == 0.0  # repro: ignore[float-eq] exact guard
            """,
        )
        assert not fired(report, "float-eq")
        assert report.suppressed


class TestSpecSignature:
    def test_drifted_to_spec_and_bare_from_spec_trigger(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.registry import register_scheme

            @register_scheme("demo")
            class Demo:
                def to_spec(self, verbose):
                    return {"kind": "demo"}

                def from_spec(cls, spec):
                    return cls()
            """,
        )
        findings = fired(report, "spec-signature")
        assert len(findings) == 2
        assert any("to_spec" in f.message for f in findings)
        assert any("@classmethod" in f.message for f in findings)

    def test_from_spec_extra_required_arg_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.registry import register_attack

            @register_attack("demo")
            class Demo:
                def to_spec(self):
                    return {"kind": "demo"}

                @classmethod
                def from_spec(cls, spec, registry):
                    return cls()
            """,
        )
        (finding,) = fired(report, "spec-signature")
        assert "(cls, spec)" in finding.message

    def test_conforming_component_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.registry import register_dataset

            @register_dataset("demo")
            class Demo:
                def to_spec(self):
                    return {"kind": "demo"}

                @classmethod
                def from_spec(cls, spec):
                    return cls()
            """,
        )
        assert report.ok

    def test_unregistered_class_is_out_of_scope(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            class Demo:
                def to_spec(self, verbose):
                    return {}
            """,
        )
        assert not fired(report, "spec-signature")

    def test_inherited_methods_are_not_flagged(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.registry import register_scheme

            @register_scheme("demo")
            class Demo(BaseScheme):
                pass
            """,
        )
        assert not fired(report, "spec-signature")

    def test_suppression(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.registry import register_scheme

            @register_scheme("demo")
            class Demo:
                def to_spec(self, verbose):  # repro: ignore[spec-signature]
                    return {"kind": "demo"}
            """,
        )
        assert not fired(report, "spec-signature")
        assert report.suppressed


class TestBareLock:
    TRIGGER = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()

        def put(self, key, value):
            self._lock.acquire()
            self.data[key] = value
            self._lock.release()
    """

    def test_bare_acquire_in_scope_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path, self.TRIGGER, module="repro.telemetry.snippet"
        )
        (finding,) = fired(report, "bare-lock")
        assert ".acquire()" in finding.message

    def test_with_statement_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def put(self, key, value):
                    with self._lock:
                        self.data[key] = value
            """,
            module="repro.engine.snippet",
        )
        assert report.ok

    def test_out_of_scope_module_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, self.TRIGGER, module="scripts.store")
        assert not fired(report, "bare-lock")

    def test_suppression(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def try_put(self):
                    return self._lock.acquire(False)  # repro: ignore[bare-lock] try-lock
            """,
            module="repro.telemetry.snippet",
        )
        assert not fired(report, "bare-lock")
        assert report.suppressed


class TestIterHotpath:
    MODULE = "repro.stats.snippet"

    def test_span_in_loop_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.telemetry import trace

            def fit(columns):
                for column in columns:
                    with trace.span("kernel.step"):
                        column.work()
            """,
            module=self.MODULE,
        )
        (finding,) = fired(report, "iter-hotpath")
        assert "trace.span()" in finding.message
        assert finding.severity == "error"
        assert not report.ok

    def test_count_in_while_loop_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.telemetry import trace

            def fit(budget):
                while budget > 0:
                    trace.count("kernel.sweeps")
                    budget -= 1
            """,
            module=self.MODULE,
        )
        (finding,) = fired(report, "iter-hotpath")
        assert "trace.count()" in finding.message

    def test_record_with_call_argument_triggers(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def fit(columns, tracker):
                for column in columns:
                    tracker.record(objective=float(column.max()))
            """,
            module=self.MODULE,
        )
        (finding,) = fired(report, "iter-hotpath")
        assert "record()" in finding.message
        assert "enabled" in finding.message

    def test_guarded_record_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def fit(columns, tracker):
                for column in columns:
                    if tracker.enabled:
                        tracker.record(objective=float(column.max()))
            """,
            module=self.MODULE,
        )
        assert not fired(report, "iter-hotpath")
        assert report.ok

    def test_simple_record_arguments_are_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            def fit(columns, tracker):
                for column in columns:
                    objective = column.solve()
                    tracker.record(objective=objective, rejected=1)
            """,
            module=self.MODULE,
        )
        assert report.ok

    def test_early_exit_guard_is_sticky(self, tmp_path):
        # The map_gd-style shape: bail out of the iteration when tracing
        # is off, then instrument freely below the guard.
        report = check_snippet(
            tmp_path,
            """
            from repro.telemetry import trace

            def fit(columns):
                for column in columns:
                    if not trace.enabled():
                        column.work()
                        continue
                    with trace.span("kernel.column"):
                        column.work(trace.iterations("kernel"))
            """,
            module=self.MODULE,
        )
        assert report.ok

    def test_if_else_guard_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.telemetry import trace

            def fit(columns):
                for column in columns:
                    if not trace.enabled():
                        column.work()
                    else:
                        with trace.span("kernel.column"):
                            column.work(trace.iterations("kernel"))
            """,
            module=self.MODULE,
        )
        assert report.ok

    def test_facade_call_outside_loop_is_clean(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.telemetry import trace

            def fit(columns):
                with trace.span("kernel.fit"):
                    tracker = trace.iterations("kernel")
                    for column in columns:
                        tracker.record(objective=column)
            """,
            module=self.MODULE,
        )
        assert report.ok

    def test_out_of_scope_module_is_skipped(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.telemetry import trace

            def drain(queue):
                for item in queue:
                    trace.count("engine.drained")
            """,
            module="repro.engine.snippet",
        )
        assert not fired(report, "iter-hotpath")

    def test_suppression(self, tmp_path):
        report = check_snippet(
            tmp_path,
            """
            from repro.telemetry import trace

            def fit(columns):
                for column in columns:
                    trace.count("kernel.columns")  # repro: ignore[iter-hotpath] coarse counter, measured negligible
            """,
            module=self.MODULE,
        )
        assert not fired(report, "iter-hotpath")
        assert report.suppressed
