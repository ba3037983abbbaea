"""Unit tests for the run-health layer: the resource sampler and the
traced-run harness around it.

Covers the ``/proc`` readers, the :class:`ResourceSampler` (worker
attribution, including PIDs it never read alive, and its documented
no-op fallback), :func:`traced_run` composing the sampler with a
streaming recorder, and the <2% budget for the periodic work a traced
run does each second: one ``metrics`` line plus five sampler ticks.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.exceptions import ValidationError
from repro.telemetry import (
    Recorder,
    ResourceSampler,
    fold_trace,
    sampling_supported,
    trace,
    traced_run,
)
from repro.telemetry.sampler import (
    announce_workers,
    announced_workers,
    clear_workers,
    read_process,
)

_LINUX = sampling_supported()


@pytest.fixture(autouse=True)
def _isolated_worker_registry():
    clear_workers()
    yield
    clear_workers()


class TestProcReaders:
    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_read_own_process_is_plausible(self):
        reading = read_process(os.getpid())
        assert reading is not None
        # A running CPython interpreter resides in at least 1 MiB and
        # has burned some CPU getting here.
        assert reading["rss_bytes"] > 1024 * 1024
        assert reading["cpu_seconds"] >= 0.0

    def test_read_dead_process_returns_none(self):
        # PID 2**22+1 exceeds the default pid_max; never a live process.
        assert read_process(4194305) is None

    def test_worker_registry_round_trip(self):
        assert announced_workers() == set()
        announce_workers([101, 102])
        announce_workers((102, 103))
        assert announced_workers() == {101, 102, 103}
        clear_workers()
        assert announced_workers() == set()


class TestResourceSampler:
    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_sample_once_publishes_parent_gauges(self):
        recorder = Recorder()
        sampler = ResourceSampler(recorder)
        sampler.sample_once()
        assert recorder.gauges["resource.rss_bytes"] > 0.0
        assert recorder.gauges["resource.rss_peak_bytes"] >= (
            recorder.gauges["resource.rss_bytes"]
        )
        assert recorder.counters["resource.samples"] == 1

    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_worker_attribution_gauges(self):
        # Announce our own PID as a "worker": always alive, always
        # readable, and the per-PID gauges must appear under it.
        pid = os.getpid()
        announce_workers([pid])
        recorder = Recorder()
        sampler = ResourceSampler(recorder)
        sampler.sample_once()
        assert recorder.gauges["resource.workers"] == 1.0
        assert recorder.gauges[
            f"resource.worker.{pid}.rss_peak_bytes"
        ] > 0.0
        assert pid in sampler.worker_peaks()

    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_dead_worker_is_not_attributed(self):
        pid = os.getpid()
        announce_workers([pid, 4194305])
        recorder = Recorder()
        sampler = ResourceSampler(recorder)
        sampler.sample_once()
        # Only the live PID counts as a worker; the dead one never
        # produced a reading, so it gets no state and no gauges.
        assert recorder.gauges["resource.workers"] == 1.0
        assert set(sampler.worker_peaks()) == {pid}
        assert not any(".4194305." in name for name in recorder.gauges)

    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_workers_never_read_alive_leave_no_gauges(self):
        # PIDs announced by an earlier pool in this process (gone by
        # now) must not make a later serial run look like it had
        # workers: no per-PID gauges and no resource.workers* at all.
        announce_workers([4194305, 4194306])
        recorder = Recorder()
        sampler = ResourceSampler(recorder)
        sampler.sample_once()
        sampler.sample_once()
        assert sampler.worker_peaks() == {}
        assert not [
            name for name in recorder.gauges
            if name.startswith("resource.worker")
        ]
        assert recorder.gauges["resource.rss_peak_bytes"] > 0.0

    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_worker_that_dies_keeps_its_recorded_peaks(self, monkeypatch):
        import repro.telemetry.sampler as sampler_module

        pid = os.getpid()
        announce_workers([pid])
        recorder = Recorder()
        sampler = ResourceSampler(recorder)
        sampler.sample_once()
        peak = recorder.gauges[f"resource.worker.{pid}.rss_peak_bytes"]
        real_read = sampler_module.read_process
        monkeypatch.setattr(
            sampler_module,
            "read_process",
            lambda p: None if p == pid else real_read(p),
        )
        sampler.sample_once()
        assert recorder.gauges["resource.workers"] == 0.0
        assert recorder.gauges[
            f"resource.worker.{pid}.rss_peak_bytes"
        ] == peak

    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_thread_lifecycle(self):
        recorder = Recorder()
        with ResourceSampler(recorder, interval=0.02) as sampler:
            assert sampler.enabled
            time.sleep(0.06)
        assert not sampler.enabled
        assert recorder.counters["resource.samples"] >= 2
        sampler.stop()  # idempotent

    def test_unsupported_platform_is_noop(self, monkeypatch):
        import repro.telemetry.sampler as sampler_module

        monkeypatch.setattr(
            sampler_module, "sampling_supported", lambda: False
        )
        recorder = Recorder()
        sampler = ResourceSampler(recorder).start()
        assert not sampler.enabled
        sampler.stop()
        assert recorder.gauges == {}
        assert recorder.counters == {}

    def test_rejects_bad_interval(self):
        with pytest.raises(ValidationError, match="interval"):
            ResourceSampler(Recorder(), interval=-1.0)


class TestTracedRun:
    def test_composes_recorder_sampler_and_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with traced_run(path, manifest=lambda: {"run": "x"}) as recorder:
            assert trace.active_recorder() is recorder
            with trace.span("work"):
                pass
        assert trace.active_recorder() is None
        stream = fold_trace(path.read_text())
        assert stream.finished
        assert stream.document["manifest"] == {"run": "x"}
        assert [s["name"] for s in stream.document["spans"]] == ["work"]
        if _LINUX:
            # The sampler stops before the stream closes, so its final
            # sample lands in the closing metrics line.
            final = stream.metrics[-1]
            assert final["gauges"]["resource.rss_peak_bytes"] > 0.0
            assert final["counters"]["resource.samples"] >= 1

    def test_failed_block_leaves_no_end_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        calls = []
        with pytest.raises(RuntimeError, match="boom"):
            with traced_run(path, manifest=lambda: calls.append(1) or {}):
                with trace.span("work"):
                    raise RuntimeError("boom")
        stream = fold_trace(path.read_text())
        assert not stream.finished
        assert calls == []  # the manifest is built only for a finished run
        assert stream.metrics  # the closing metrics line is still written
        [span] = stream.document["spans"]
        assert span["attrs"]["error"] == "RuntimeError"

    def test_sampling_unsupported_still_streams(self, tmp_path, monkeypatch):
        import repro.telemetry.sampler as sampler_module

        monkeypatch.setattr(
            sampler_module, "sampling_supported", lambda: False
        )
        path = tmp_path / "trace.jsonl"
        with traced_run(path):
            trace.count("events")
        stream = fold_trace(path.read_text())
        assert stream.finished
        assert stream.document["counters"] == {"events": 1}
        assert stream.document["gauges"] == {}


class TestTracedRunOverheadBudget:
    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_tick_costs_fit_the_two_percent_budget(self, tmp_path):
        """One second of traced-run ticks must cost < 2% of that second.

        Each wall-clock second of a traced run holds at most one
        ``metrics`` line (the recorder's rate limit) and five sampler
        samples (interval 0.2); the summed tick costs must stay under
        20ms.  Measuring per-tick cost directly (instead of A/B-ing two
        full runs) keeps the assertion robust to machine noise.
        """
        recorder = Recorder(tmp_path / "trace.jsonl")
        # A realistically-sized recorder: dozens of metrics live.
        for i in range(40):
            recorder.count(f"counter.{i}", i)
            recorder.gauge(f"gauge.{i}", float(i))
        recorder.gauge("engine.jobs.total", 100.0)
        recorder.gauge("engine.jobs.completed", 50.0)
        announce_workers([os.getpid()])
        sampler = ResourceSampler(recorder)
        recorder.write_metrics()  # warmup
        sampler.sample_once()

        ticks = 20
        started = time.perf_counter()
        for _ in range(ticks):
            recorder.write_metrics()
        write_cost = (time.perf_counter() - started) / ticks

        started = time.perf_counter()
        for _ in range(ticks):
            sampler.sample_once()
        sample_cost = (time.perf_counter() - started) / ticks
        recorder.close()

        per_second = write_cost * 1.0 + sample_cost * 5.0
        assert per_second < 0.02
