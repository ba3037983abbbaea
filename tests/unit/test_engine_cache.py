"""Unit tests for the content-addressed result cache."""

import json

import pytest

from repro.engine import Engine, Executor
from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.jobs import JobResult, JobSpec
from repro.exceptions import ValidationError

_HERE = "tests.unit.test_engine_cache"


def logging_task(params, rng):
    """Appends to a side-effect file so tests can count real executions."""
    with open(params["log"], "a") as stream:
        stream.write("ran\n")
    return {"value": params["value"]}


def _spec(tmp_path, value=1):
    return JobSpec(
        f"{_HERE}:logging_task",
        {"log": str(tmp_path / "log.txt"), "value": value},
    )


def _executions(tmp_path):
    log = tmp_path / "log.txt"
    return len(log.read_text().splitlines()) if log.exists() else 0


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(_spec(tmp_path)) is None
        assert len(cache) == 0

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(tmp_path)
        result = JobResult(key=spec.key(), values={"value": 1}, duration=0.5)
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.cached is True
        assert hit.values == {"value": 1}
        assert hit.duration == 0.5
        assert len(cache) == 1

    def test_key_mismatch_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(tmp_path)
        wrong = JobResult(key="0" * 64, values={}, duration=0.0)
        with pytest.raises(ValidationError, match="does not match"):
            cache.put(spec, wrong)

    def test_different_params_different_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        one, two = _spec(tmp_path, 1), _spec(tmp_path, 2)
        cache.put(one, JobResult(one.key(), {"value": 1}, 0.0))
        assert cache.get(two) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(tmp_path)
        cache.put(spec, JobResult(spec.key(), {"value": 1}, 0.0))
        path = cache.path_for(spec.key())
        path.write_text("{truncated")
        assert cache.get(spec) is None
        assert not path.exists()

    def test_task_mismatch_is_a_miss(self, tmp_path):
        """Hash-collision paranoia: a stored entry must name the task."""
        cache = ResultCache(tmp_path)
        spec = _spec(tmp_path)
        cache.put(spec, JobResult(spec.key(), {"value": 1}, 0.0))
        path = cache.path_for(spec.key())
        payload = json.loads(path.read_text())
        payload["task"] = "other.module:function"
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in range(3):
            spec = _spec(tmp_path, value)
            cache.put(spec, JobResult(spec.key(), {"value": value}, 0.0))
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert ResultCache().directory == tmp_path / "alt"


class TestEngineCaching:
    def test_second_run_skips_all_jobs(self, tmp_path):
        specs = [_spec(tmp_path, value) for value in range(4)]
        engine = Engine(Executor(), cache=ResultCache(tmp_path / "c"))
        first = engine.run(specs)
        assert _executions(tmp_path) == 4
        assert all(not result.cached for result in first)

        second = engine.run(specs)
        assert _executions(tmp_path) == 4, "cached jobs must not re-run"
        assert all(result.cached for result in second)
        assert [r.values for r in second] == [r.values for r in first]

    def test_partial_hit_runs_only_misses(self, tmp_path):
        engine = Engine(cache=ResultCache(tmp_path / "c"))
        engine.run([_spec(tmp_path, 0)])
        engine.run([_spec(tmp_path, 0), _spec(tmp_path, 1)])
        assert _executions(tmp_path) == 2

    def test_no_cache_always_executes(self, tmp_path):
        engine = Engine()
        engine.run([_spec(tmp_path, 0)])
        engine.run([_spec(tmp_path, 0)])
        assert _executions(tmp_path) == 2

    def test_duplicate_spec_objects_both_get_results(self, tmp_path):
        spec = _spec(tmp_path, 7)
        results = Engine().run([spec, spec])
        assert all(result is not None for result in results)
        assert [r.values for r in results] == [{"value": 7}, {"value": 7}]

    def test_completed_jobs_cached_despite_later_failure(self, tmp_path):
        """A mid-sweep failure must not discard already-finished work."""
        cache = ResultCache(tmp_path / "c")
        ok = [_spec(tmp_path, value) for value in (0, 1)]
        bad = JobSpec(
            "tests.unit.test_engine_cache:no_such_task_function", {}
        )
        with pytest.raises(ValidationError):
            Engine(cache=cache).run(ok + [bad])
        assert len(cache) == 2
        assert _executions(tmp_path) == 2
        # The rerun without the bad job is served entirely from cache.
        Engine(cache=cache).run(ok)
        assert _executions(tmp_path) == 2

    def test_parallel_failure_preserves_completed_chunks(self, tmp_path):
        """Out-of-order completions must reach the cache even when a
        sibling chunk fails (three jobs on two workers: one job per
        chunk)."""
        cache = ResultCache(tmp_path / "c")
        ok = [_spec(tmp_path, value) for value in (0, 1)]
        bad = JobSpec(
            "tests.unit.test_engine_cache:no_such_task_function", {}
        )
        executor = Executor(workers=2)
        with pytest.raises(ValidationError):
            Engine(executor, cache=cache).run([bad] + ok)
        assert len(cache) == 2
        # The rerun without the bad job executes nothing new.
        Engine(executor, cache=cache).run(ok)
        assert _executions(tmp_path) == 2
