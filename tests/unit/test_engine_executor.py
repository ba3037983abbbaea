"""Unit tests for the executor: in-process and process-pool paths."""

import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import Engine
from repro.engine.executor import Executor, default_worker_count
from repro.engine.jobs import JobSpec
from repro.engine.progress import ProgressReporter, ThroughputReporter
from repro.exceptions import JobExecutionError, ValidationError

_HERE = "tests.unit.test_engine_executor"


def square_task(params, rng):
    return {"square": params["x"] ** 2}


def draw_task(params, rng):
    return {"draw": float(rng.normal())}


def sometimes_failing_task(params, rng):
    if params["x"] == 2:
        raise ValueError("x=2 is cursed")
    return {"square": params["x"] ** 2}


def pid_task(params, rng):
    return {"x": params["x"], "pid": os.getpid()}


def blas_task(params, rng):
    from repro.engine.executor import _blas_threads

    return {"x": params["x"], "threads": _blas_threads()}


def _specs(count, task="square_task"):
    return [
        JobSpec(f"{_HERE}:{task}", {"x": x}, seed_root=5, seed_path=(x,))
        for x in range(count)
    ]


class TestInProcess:
    def test_order_preserved(self):
        results = Executor().run(_specs(5))
        assert [r.values["square"] for r in results] == [0, 1, 4, 9, 16]

    def test_callback_per_job(self):
        seen = []
        Executor().run(_specs(3), callback=seen.append)
        assert [r.values["square"] for r in seen] == [0, 1, 4]

    def test_failure_propagates(self):
        with pytest.raises(JobExecutionError, match="x=2 is cursed"):
            Executor().run(_specs(4, "sometimes_failing_task"))


class TestProcessPool:
    def test_order_preserved(self):
        results = Executor(workers=2).run(_specs(6))
        assert [r.values["square"] for r in results] == [0, 1, 4, 9, 16, 25]

    def test_matches_serial_bit_for_bit(self):
        serial = Executor().run(_specs(6, "draw_task"))
        parallel = Executor(workers=3).run(_specs(6, "draw_task"))
        assert [r.values for r in serial] == [r.values for r in parallel]
        assert [r.key for r in serial] == [r.key for r in parallel]

    def test_failure_propagates_across_processes(self):
        with pytest.raises(JobExecutionError, match="x=2 is cursed"):
            Executor(workers=2).run(
                _specs(4, "sometimes_failing_task")
            )

    def test_empty_run(self):
        assert Executor(workers=2).run([]) == []

    def test_single_spec_runs_in_process(self, monkeypatch):
        import repro.engine.executor as executor_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a single spec must not start a pool")

        monkeypatch.setattr(executor_module, "_ProcessPool", no_pool)
        (result,) = Executor(workers=2).run(_specs(1))
        assert result.values == {"square": 0}

    def test_default_is_one_worker(self):
        assert Executor().workers == 1

    def test_autodetect_workers(self):
        assert Executor(workers=0).workers == default_worker_count()
        assert default_worker_count() >= 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            Executor(workers=-2)
        with pytest.raises(ValidationError):
            Executor(workers=None)

    def test_chunk_autosizing(self):
        executor = Executor(workers=2)
        assert executor._chunk_for(1) == 1
        assert executor._chunk_for(16) == 2
        assert executor._chunk_for(10_000) == 16


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [-1, -5, None, 1.5, "2", True, False])
    def test_rejects_invalid_worker_count(self, workers):
        with pytest.raises(ValidationError, match="workers must be"):
            Executor(workers=workers)

    # False == 0 would autodetect and True == 1 would run serially.
    @pytest.mark.parametrize("jobs", [True, False])
    def test_build_engine_rejects_a_bool_job_count(self, jobs):
        from repro.api import build_engine

        with pytest.raises(ValidationError, match="workers must be"):
            build_engine(jobs=jobs)

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_accepts_explicit_worker_count(self, workers):
        assert Executor(workers=workers).workers == workers

    @pytest.mark.parametrize("workers", [1, 3])
    def test_repr_names_the_worker_count(self, workers):
        assert repr(Executor(workers=workers)) == f"Executor(workers={workers})"


class TestChunkSizing:
    @pytest.mark.parametrize(
        "workers, n_jobs, expected",
        [
            (1, 1, 1),
            (1, 4, 1),
            (1, 5, 2),
            (2, 8, 1),
            (2, 9, 2),
            (4, 64, 4),
            (4, 65, 5),
            (2, 129, 16),
        ],
    )
    def test_chunk_is_ceil_of_quarter_share_capped_at_16(
        self, workers, n_jobs, expected
    ):
        assert Executor(workers=workers)._chunk_for(n_jobs) == expected


class _InlinePool:
    """Stands in for the process pool: runs each chunk in this process.

    Chunks whose submission index is in ``lose`` come back as a
    ``BrokenProcessPool`` future — what a worker dying mid-chunk looks
    like to the parent.  The worker initializer is recorded, not run:
    it would change this process's tracing state.
    """

    def __init__(self, max_workers, lose=(), initializer=None, initargs=()):
        self.max_workers = max_workers
        self.lose = set(lose)
        self.initializer = initializer
        self.initargs = initargs
        self.submitted = []
        self.shutdowns = []
        #: Set to make ``submit`` raise, as it does once a worker of an
        #: idle pool has died.
        self.broken = False
        self._processes = {}

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})

    def submit(self, fn, *args):
        if self.broken:
            raise BrokenProcessPool("a worker died while the pool was idle")
        index = len(self.submitted)
        self.submitted.append(list(args[0]))
        future = Future()
        if index in self.lose:
            future.set_exception(BrokenProcessPool(f"chunk {index} lost"))
            return future
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # a real pool hands it over the same way
            future.set_exception(exc)
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    """Install an :class:`_InlinePool`; returns the pools it created."""
    import repro.engine.executor as executor_module

    pools = []

    def install(lose=()):
        def factory(max_workers, **kwargs):
            pool = _InlinePool(max_workers, lose, **kwargs)
            pools.append(pool)
            return pool

        monkeypatch.setattr(executor_module, "_ProcessPool", factory)
        return pools

    return install


class TestPoolDispatch:
    @pytest.mark.parametrize(
        "workers, n_jobs", [(2, 5), (2, 40), (3, 100), (8, 3), (4, 1000)]
    )
    def test_chunks_cover_every_spec_once_in_order(
        self, inline_pool, workers, n_jobs
    ):
        pools = inline_pool()
        executor = Executor(workers=workers)
        specs = _specs(n_jobs)
        results = executor.run(specs)
        (pool,) = pools
        chunk = executor._chunk_for(n_jobs)
        assert [spec for batch in pool.submitted for spec in batch] == specs
        assert all(len(batch) <= chunk for batch in pool.submitted)
        assert len(pool.submitted) == -(-n_jobs // chunk)
        assert [r.values["square"] for r in results] == [
            x**2 for x in range(n_jobs)
        ]

    @pytest.mark.parametrize(
        "workers, n_jobs, pool_size",
        [(8, 3, 3), (2, 40, 2), (4, 6, 4), (16, 5, 5)],
    )
    def test_pool_size_capped_at_chunk_count(
        self, inline_pool, workers, n_jobs, pool_size
    ):
        pools = inline_pool()
        Executor(workers=workers).run(_specs(n_jobs))
        assert pools[0].max_workers == pool_size

    def test_lost_chunk_drains_to_failed_results(self, inline_pool):
        inline_pool(lose={1})
        results = Executor(workers=2).run(_specs(4), fail_fast=False)
        assert [r.failed for r in results] == [False, True, False, False]
        assert results[1].error["type"] == "BrokenProcessPool"
        assert "chunk 1 lost" in results[1].error["message"]
        assert results[1].key == _specs(4)[1].key()
        assert [r.values.get("square") for r in results] == [0, None, 4, 9]

    def test_lost_chunk_fails_every_spec_it_carried(self, inline_pool):
        inline_pool(lose={1})
        executor = Executor(workers=2)
        chunk = executor._chunk_for(20)
        assert chunk == 3
        results = executor.run(_specs(20), fail_fast=False)
        lost = set(range(chunk, 2 * chunk))
        assert [i for i, r in enumerate(results) if r.failed] == sorted(lost)
        for i, result in enumerate(results):
            if i not in lost:
                assert result.values == {"square": i**2}

    def test_lost_chunk_fail_fast_raises_after_delivering_others(
        self, inline_pool
    ):
        inline_pool(lose={0})
        seen = []
        with pytest.raises(BrokenProcessPool, match="chunk 0 lost"):
            Executor(workers=2).run(_specs(4), callback=seen.append)
        # Every surviving chunk reached the callback before the raise.
        assert sorted(r.values["square"] for r in seen) == [1, 4, 9]
        assert not any(r.failed for r in seen)

    def test_two_lost_chunks_fail_fast_raises_once(self, inline_pool):
        inline_pool(lose={0, 2})
        seen = []
        with pytest.raises(BrokenProcessPool):
            Executor(workers=2).run(_specs(4), callback=seen.append)
        assert sorted(r.values["square"] for r in seen) == [1, 9]

    def test_drain_callback_sees_lost_specs(self, inline_pool):
        inline_pool(lose={2})
        seen = []
        Executor(workers=2).run(
            _specs(4), callback=seen.append, fail_fast=False
        )
        assert len(seen) == 4
        assert sorted(r.key for r in seen if r.failed) == [_specs(4)[2].key()]

    def test_engine_never_caches_a_lost_chunk(self, inline_pool, tmp_path):
        from repro.engine import ResultCache

        inline_pool(lose={3})
        cache = ResultCache(tmp_path)
        specs = _specs(4)
        results = Engine(
            executor=Executor(workers=2), cache=cache, fail_fast=False
        ).run(specs)
        assert [r.failed for r in results] == [False, False, False, True]
        assert len(cache) == 3
        assert cache.get(specs[3]) is None


_CLOSED = {"wait": True, "cancel_futures": True}


class TestPoolLifetime:
    """One pool per executor: forked lazily, reused, replaced only when
    a run needs more workers, and shut down on faults and on close."""

    def test_no_pool_until_the_first_pooled_run(self, inline_pool):
        from repro.api import build_engine

        pools = inline_pool()
        engine = build_engine(jobs=2)
        assert pools == []
        engine.run(_specs(1))
        assert pools == []
        engine.run(_specs(4))
        assert len(pools) == 1

    def test_later_runs_reuse_the_pool(self, inline_pool):
        import repro.engine.executor as executor_module

        pools = inline_pool()
        executor = Executor(workers=2)
        for count in (4, 9, 2):
            results = executor.run(_specs(count))
            assert [r.values["square"] for r in results] == [
                x**2 for x in range(count)
            ]
        (pool,) = pools
        assert pool.shutdowns == []
        assert pool.initializer is executor_module._init_worker

    def test_pool_is_replaced_only_by_a_larger_one(self, inline_pool):
        pools = inline_pool()
        executor = Executor(workers=8)
        executor.run(_specs(3))
        executor.run(_specs(2))
        executor.run(_specs(100))
        executor.run(_specs(3))
        assert [pool.max_workers for pool in pools] == [3, 8]
        assert pools[0].shutdowns == [_CLOSED]
        assert pools[1].shutdowns == []

    def test_job_failure_keeps_the_pool(self, inline_pool):
        pools = inline_pool()
        executor = Executor(workers=2)
        with pytest.raises(JobExecutionError, match="x=2 is cursed"):
            executor.run(_specs(4, "sometimes_failing_task"))
        results = executor.run(_specs(4))
        assert [r.values["square"] for r in results] == [0, 1, 4, 9]
        (pool,) = pools
        assert pool.shutdowns == []

    @pytest.mark.parametrize("fail_fast", [True, False])
    def test_lost_chunk_drops_the_pool(self, inline_pool, fail_fast):
        pools = inline_pool(lose={1})
        executor = Executor(workers=2)
        try:
            executor.run(_specs(4), fail_fast=fail_fast)
        except BrokenProcessPool:
            assert fail_fast
        assert pools[0].shutdowns == [_CLOSED]
        executor.run(_specs(4), fail_fast=False)
        assert len(pools) == 2

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_exception_from_the_callback_cancels_and_drops_the_pool(
        self, inline_pool, error
    ):
        pools = inline_pool()
        executor = Executor(workers=2)

        def callback(result):
            raise error("cache write failed")

        with pytest.raises(error):
            executor.run(_specs(4), callback=callback)
        assert pools[0].shutdowns == [_CLOSED]
        results = executor.run(_specs(4))
        assert [r.values["square"] for r in results] == [0, 1, 4, 9]
        assert len(pools) == 2

    def test_pool_broken_while_idle_is_replaced(self, inline_pool):
        pools = inline_pool()
        executor = Executor(workers=2)
        executor.run(_specs(4))
        pools[0].broken = True
        results = executor.run(_specs(4))
        assert [r.values["square"] for r in results] == [0, 1, 4, 9]
        assert pools[0].shutdowns == [_CLOSED]
        assert len(pools) == 2 and pools[1].shutdowns == []

    def test_close_is_idempotent_and_the_next_run_forks_again(
        self, inline_pool
    ):
        pools = inline_pool()
        executor = Executor(workers=2)
        executor.close()
        executor.run(_specs(4))
        executor.close()
        executor.close()
        assert pools[0].shutdowns == [_CLOSED]
        executor.run(_specs(4))
        assert len(pools) == 2

    def test_engine_close_and_with_block_close_the_executor(
        self, inline_pool
    ):
        pools = inline_pool()
        engine = Engine(executor=Executor(workers=2))
        engine.run(_specs(4))
        engine.close()
        with Engine(executor=Executor(workers=2)) as scoped:
            scoped.run(_specs(4))
        assert [pool.shutdowns for pool in pools] == [[_CLOSED], [_CLOSED]]

    def test_dropped_executor_shuts_its_pool_down(self, inline_pool):
        pools = inline_pool()
        executor = Executor(workers=2)
        executor.run(_specs(4))
        del executor
        assert pools[0].shutdowns == [_CLOSED]


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestRealPoolLifetime:
    def test_workers_serve_every_run_until_close(self):
        executor = Executor(workers=2)
        executor.run(_specs(4))
        workers = set(executor._pool._processes)
        assert len(workers) == 2
        for count in (6, 9):
            results = executor.run(_specs(count, "pid_task"))
            assert {r.values["pid"] for r in results} <= workers
        assert set(executor._pool._processes) == workers
        executor.close()
        assert not any(_alive(pid) for pid in workers)
        executor.close()
        results = executor.run(_specs(4, "pid_task"))
        assert not {r.values["pid"] for r in results} & workers
        executor.close()

    def test_with_block_reaps_the_workers(self):
        with Engine(executor=Executor(workers=2)) as engine:
            engine.run(_specs(4))
            workers = set(engine.executor._pool._processes)
        assert workers and not any(_alive(pid) for pid in workers)

    def test_dropping_the_engine_reaps_the_workers(self):
        engine = Engine(executor=Executor(workers=2))
        engine.run(_specs(4))
        workers = set(engine.executor._pool._processes)
        del engine
        assert workers and not any(_alive(pid) for pid in workers)


@pytest.fixture
def blas_count():
    """Set this process's OpenBLAS thread count; restored after the test."""
    from repro.engine.executor import _openblas

    if _openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS is not readable here")
    get, set_ = _openblas()
    before = get()
    yield set_
    set_(before)


class TestBlasThreads:
    """Pool workers run at this process's OpenBLAS thread count, and the
    in-process path leaves the count alone: OpenBLAS splits some kernels
    by thread, so the count decides bits."""

    def _run_span(self, engine, specs):
        from repro.telemetry import Recorder, trace

        recorder = Recorder()
        with trace.recording(recorder):
            engine.run(specs)
        [run] = recorder.to_document()["spans"]
        return run["attrs"]

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_jobs_run_at_this_process_count(
        self, blas_count, workers, count
    ):
        from repro.engine.executor import _blas_threads

        blas_count(count)
        with Engine(executor=Executor(workers=workers)) as engine:
            results = engine.run(_specs(4, "blas_task"))
        assert {r.values["threads"] for r in results} == {count}
        assert _blas_threads() == count

    def test_a_kept_pool_follows_a_later_count(self, blas_count):
        blas_count(1)
        with Engine(executor=Executor(workers=2)) as engine:
            engine.run(_specs(4, "blas_task"))
            workers = set(engine.executor._pool._processes)
            blas_count(2)
            results = engine.run(_specs(4, "blas_task"))
            assert set(engine.executor._pool._processes) == workers
        assert {r.values["threads"] for r in results} == {2}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_span_records_the_count(self, blas_count, workers):
        blas_count(2)
        with Engine(executor=Executor(workers=workers)) as engine:
            assert self._run_span(engine, _specs(4))["blas_threads"] == 2

    def test_fully_cached_run_records_no_count(self, blas_count, tmp_path):
        from repro.engine import ResultCache

        blas_count(2)
        engine = Engine(
            executor=Executor(workers=2), cache=ResultCache(tmp_path)
        )
        with engine:
            assert self._run_span(engine, _specs(4))["blas_threads"] == 2
            attrs = self._run_span(engine, _specs(4))
        assert attrs["cached"] == 4
        assert "blas_threads" not in attrs


class TestRealPool:
    @pytest.mark.parametrize(
        "workers, n_jobs", [(2, 2), (2, 7), (3, 10), (4, 33)]
    )
    def test_order_preserved(self, workers, n_jobs):
        results = Executor(workers=workers).run(_specs(n_jobs))
        assert [r.values["square"] for r in results] == [
            x**2 for x in range(n_jobs)
        ]

    def test_callback_fires_once_per_job(self):
        specs = _specs(9)
        seen = []
        Executor(workers=2).run(specs, callback=seen.append)
        assert sorted(r.key for r in seen) == sorted(s.key() for s in specs)

    def test_jobs_run_outside_this_process(self):
        results = Executor(workers=2).run(_specs(4, "pid_task"))
        assert os.getpid() not in {r.values["pid"] for r in results}

    def test_one_worker_runs_many_specs_in_process(self, monkeypatch):
        import repro.engine.executor as executor_module

        def no_pool(*args, **kwargs):
            raise AssertionError("one worker must not start a pool")

        monkeypatch.setattr(executor_module, "_ProcessPool", no_pool)
        results = Executor(workers=1).run(_specs(12, "pid_task"))
        assert {r.values["pid"] for r in results} == {os.getpid()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unresolvable_task_drains_to_failed_result(self, workers):
        specs = _specs(3) + [
            JobSpec(f"{_HERE}:no_such_task", {"x": 3}, seed_root=5)
        ]
        results = Executor(workers=workers).run(specs, fail_fast=False)
        assert [r.failed for r in results] == [False, False, False, True]
        assert results[3].error["type"] == "ValidationError"
        assert "cannot resolve task" in results[3].error["message"]


    # The pool imports each task before it forks and swallows failures
    # there; an unresolvable task must still fail on the job path.
    @pytest.mark.parametrize(
        "task", [f"{_HERE}:no_such_task", "repro.no_such_module:task"]
    )
    def test_unresolvable_task_raises_from_the_pool(self, task):
        specs = _specs(3) + [JobSpec(task, {"x": 3}, seed_root=5)]
        with pytest.raises(ValidationError, match="cannot resolve task"):
            Executor(workers=2).run(specs)

    def test_unimportable_task_module_drains_to_failed_result(self):
        specs = _specs(3) + [
            JobSpec("repro.no_such_module:task", {"x": 3}, seed_root=5)
        ]
        results = Executor(workers=2).run(specs, fail_fast=False)
        assert [r.failed for r in results] == [False, False, False, True]
        assert [r.values["square"] for r in results[:3]] == [0, 1, 4]
        assert results[3].error["type"] == "ValidationError"
        assert "cannot resolve task" in results[3].error["message"]


class TestJobSpans:
    def _jobs(self, executor, specs, fail_fast=True):
        from repro.telemetry import Recorder, trace

        recorder = Recorder()
        with trace.recording(recorder):
            results = Engine(executor=executor, fail_fast=fail_fast).run(specs)
        [run] = recorder.to_document()["spans"]
        jobs = [s for s in run["children"] if s["name"] == "engine.job"]
        return results, jobs

    def test_in_process_span_attributes(self):
        results, jobs = self._jobs(Executor(), _specs(3))
        for result, job in zip(results, jobs):
            attrs = job["attrs"]
            assert attrs["worker"] == os.getpid()
            assert attrs["queue_wait"] == 0.0
            assert attrs["compute"] == result.duration
            assert attrs["key"] == result.key[:16]
            assert attrs["cached"] is False

    def test_pool_span_attributes(self):
        results, jobs = self._jobs(Executor(workers=2), _specs(4))
        assert len(jobs) == 4
        for job in jobs:
            attrs = job["attrs"]
            assert attrs["worker"] != os.getpid()
            assert attrs["queue_wait"] >= 0.0
            assert attrs["compute"] >= 0.0
        assert sorted(job["attrs"]["key"] for job in jobs) == sorted(
            r.key[:16] for r in results
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_job_span_names_the_error(self, workers):
        _, jobs = self._jobs(
            Executor(workers=workers),
            _specs(4, "sometimes_failing_task"),
            fail_fast=False,
        )
        errors = {
            tuple(job["attrs"]["seed_path"]): job["attrs"].get("error")
            for job in jobs
        }
        assert errors == {(0,): None, (1,): None, (2,): "ValueError", (3,): None}


class TestFailureHandling:
    def test_serial_traceback_preserved(self):
        with pytest.raises(JobExecutionError, match="x=2 is cursed") as info:
            Executor().run(_specs(4, "sometimes_failing_task"))
        assert "ValueError: x=2 is cursed" in info.value.traceback
        assert "sometimes_failing_task" in info.value.traceback

    def test_parallel_traceback_survives_process_boundary(self):
        with pytest.raises(JobExecutionError, match="x=2 is cursed") as info:
            Executor(workers=2).run(
                _specs(4, "sometimes_failing_task")
            )
        assert info.value.traceback is not None
        assert "ValueError: x=2 is cursed" in info.value.traceback

    def test_job_execution_error_pickle_round_trip(self):
        import pickle

        error = JobExecutionError("job died", traceback="Traceback ...")
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "job died"
        assert clone.traceback == "Traceback ..."

    def test_serial_drain_mode_collects_failures(self):
        results = Executor().run(
            _specs(4, "sometimes_failing_task"), fail_fast=False
        )
        assert [r.failed for r in results] == [False, False, True, False]
        failed = results[2]
        assert failed.values == {}
        assert failed.error["type"] == "ValueError"
        assert "x=2 is cursed" in failed.error["message"]
        assert "ValueError: x=2 is cursed" in failed.error["traceback"]
        assert [r.values.get("square") for r in results] == [0, 1, None, 9]

    def test_parallel_drain_mode_collects_failures(self):
        results = Executor(workers=2).run(
            _specs(4, "sometimes_failing_task"), fail_fast=False
        )
        assert [r.failed for r in results] == [False, False, True, False]
        assert "ValueError: x=2 is cursed" in results[2].error["traceback"]

    def test_drain_mode_callback_sees_failures(self):
        seen = []
        Executor().run(
            _specs(4, "sometimes_failing_task"),
            callback=seen.append,
            fail_fast=False,
        )
        assert sorted(r.failed for r in seen) == [False, False, False, True]

    def test_engine_drain_mode_never_caches_failures(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path)
        engine = Engine(cache=cache, fail_fast=False)
        results = engine.run(_specs(4, "sometimes_failing_task"))
        assert [r.failed for r in results] == [False, False, True, False]
        assert len(cache) == 3
        # Re-running recovers the three successes and re-fails the rest.
        again = Engine(cache=cache, fail_fast=False).run(
            _specs(4, "sometimes_failing_task")
        )
        assert [r.cached for r in again] == [True, True, False, True]
        assert again[2].failed

    def test_cache_refuses_failed_results(self, tmp_path):
        from repro.engine import ResultCache
        from repro.engine.jobs import failed_result

        spec = _specs(1)[0]
        result = failed_result(spec, ValueError("nope"))
        with pytest.raises(ValidationError, match="failed result"):
            ResultCache(tmp_path).put(spec, result)

    def test_failed_result_shape(self):
        from repro.engine.jobs import failed_result

        spec = _specs(1)[0]
        result = failed_result(spec, ValueError("nope"), traceback="tb")
        assert result.failed
        assert result.key == spec.key()
        assert result.error == {
            "type": "ValueError",
            "message": "nope",
            "traceback": "tb",
        }


class TestProgressReporting:
    def test_engine_emits_progress_events(self):
        events = []

        class Recorder(ProgressReporter):
            def on_start(self, total):
                events.append(("start", total))

            def on_result(self, result, completed, total):
                events.append(("result", completed, total))

            def on_finish(self, elapsed, completed, cached):
                events.append(("finish", completed, cached))

        Engine(progress=Recorder()).run(_specs(3))
        assert events[0] == ("start", 3)
        assert events[1:4] == [
            ("result", 1, 3),
            ("result", 2, 3),
            ("result", 3, 3),
        ]
        assert events[-1] == ("finish", 3, 0)

    def test_throughput_reporter_writes_eta_lines(self):
        import io

        stream = io.StringIO()
        reporter = ThroughputReporter(stream=stream, min_interval=0.0)
        engine = Engine(progress=reporter)
        engine.run(_specs(3))
        output = stream.getvalue()
        assert "3/3 jobs" in output
        assert "jobs/s" in output
        assert "3 jobs in" in output


class TestTraceReporterRows:
    def _spec(self):
        from repro.api.spec import ExperimentSpec

        return ExperimentSpec(
            name="reporter-rows",
            task="repro.api.tasks:attack_point",
            params={
                "dataset": {"kind": "synthetic", "spectrum": [50.0, 10.0]},
                "scheme": {"kind": "additive", "std": 2.0},
                "attacks": {"UDR": {"kind": "udr"}},
                "n_records": 50,
            },
            trials=2,
            seed=3,
        )

    def test_row_holds_timing_and_provenance_only(self):
        from repro.engine.jobs import JobResult
        from repro.engine.progress import TraceReporter
        from repro.telemetry import Recorder, trace

        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("engine.job") as span:
                span.set(convergence={"kernel": "em.fit", "iterations": 2})
        fragment = recorder.export_fragment()
        reporter = TraceReporter()
        reporter.on_start(1)
        reporter.on_result(
            JobResult(key="a", values={}, duration=0.1, trace=fragment), 1, 1
        )
        assert reporter.rows == [
            {"key": "a", "duration": 0.1, "cached": False, "order": 1}
        ]

    def test_manifest_join_copies_timing_columns_only(self):
        from repro.telemetry import build_manifest, validate_trace
        from repro.telemetry.recorder import Recorder

        spec = self._spec()
        first, _ = spec.compile_jobs()
        rows = [
            {
                "key": first.key(),
                "duration": 0.5,
                "cached": True,
                "order": 1,
                "convergence": {"kalman.filter": {"fits": 1}},
            }
        ]
        manifest = build_manifest(spec=spec, rows=rows)
        joined, unjoined = manifest["jobs"]
        assert joined["duration"] == 0.5 and joined["cached"] is True
        assert "convergence" not in joined
        assert "duration" not in unjoined
        document = Recorder().to_document(manifest=manifest)
        validate_trace(document)
