"""Fault injection: the process pool drains or fails fast, never silently.

Two failure modes against ``Executor(workers=2)`` — a task that raises
and a worker SIGKILLed mid-job.  With ``fail_fast=True`` each must
raise; with ``fail_fast=False`` every spec still comes back as a
JobResult, the lost ones as *failed* results carrying the error, and a
failed result is never written to the cache.  Four specs on two
workers dispatch one job per chunk, so a failure loses only its own
chunk.
"""

import os
import signal

import pytest

from repro.engine import Engine, Executor, JobSpec, ResultCache
from repro.exceptions import JobExecutionError

pytestmark = pytest.mark.slow

_HERE = "tests.integration.test_executor_faults"


def crashing_task(params, rng):
    if params["x"] == 1:
        raise RuntimeError("injected task failure")
    return {"draw": float(rng.normal()), "x": params["x"]}


def killer_task(params, rng):
    if params["x"] == 1:
        # Simulate a worker dying mid-job: SIGKILL skips all cleanup.
        os.kill(os.getpid(), signal.SIGKILL)
    return {"draw": float(rng.normal()), "x": params["x"]}


def _specs(task, count=4):
    return [
        JobSpec(f"{_HERE}:{task}", {"x": i}, seed_root=3, seed_path=(i,))
        for i in range(count)
    ]


class TestTaskRaises:
    def test_fail_fast_raises(self):
        with pytest.raises(JobExecutionError, match="injected task failure"):
            Executor(workers=2).run(_specs("crashing_task"))

    def test_drain_mode_returns_failed_result_per_spec(self):
        results = Executor(workers=2).run(
            _specs("crashing_task"), fail_fast=False
        )
        assert len(results) == 4
        assert [r.failed for r in results] == [False, True, False, False]
        error = results[1].error
        assert error["type"] == "RuntimeError"
        assert "injected task failure" in error["message"]
        assert "RuntimeError: injected task failure" in error["traceback"]
        in_process = Executor().run(_specs("crashing_task"), fail_fast=False)
        for pooled, reference in zip(results, in_process):
            assert pooled.values == reference.values

    def test_drain_mode_never_caches_failures(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = Engine(
            executor=Executor(workers=2), cache=cache, fail_fast=False
        )
        results = engine.run(_specs("crashing_task"))
        assert sum(r.failed for r in results) == 1
        assert len(cache) == 3


class TestWorkerKilledMidJob:
    def test_fail_fast_raises(self):
        with pytest.raises(Exception) as info:
            Executor(workers=2).run(_specs("killer_task"))
        # A SIGKILLed worker surfaces as a broken-pool error, never as a
        # silent partial result.
        assert "process" in str(info.value).lower()

    def test_drain_mode_synthesizes_failed_results(self):
        results = Executor(workers=2).run(
            _specs("killer_task"), fail_fast=False
        )
        # Every spec gets a result; the killed chunk (and any chunk lost
        # with the broken pool) comes back failed with the pool error.
        assert len(results) == 4
        assert results[1].failed
        assert all(
            r.failed or r.values["x"] == i for i, r in enumerate(results)
        )
        assert results[1].error["type"] != ""
        assert results[1].error["message"]

    def test_drain_mode_never_caches_failures(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = Engine(
            executor=Executor(workers=2), cache=cache, fail_fast=False
        )
        specs = _specs("killer_task")
        results = engine.run(specs)
        assert results[1].failed
        assert len(cache) == sum(not r.failed for r in results)
        # Exactly the survivors are cached, under their own keys.
        for spec, result in zip(specs, results):
            assert (cache.get(spec) is None) == result.failed
