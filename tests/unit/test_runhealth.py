"""Unit tests for the run-health layer: exporter, sampler, schema.

Covers the ``repro-metrics/v1`` validator, the OpenMetrics renderer,
the :class:`MetricsExporter` ring/progress/atomic-write behavior, the
``/proc`` resource sampler (including its documented no-op fallback),
the :func:`run_health` composition, and the ISSUE's <2% overhead budget
for one exporter tick plus one sampler tick.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.exceptions import ValidationError
from repro.telemetry import (
    METRICS_SCHEMA,
    MetricsExporter,
    Recorder,
    ResourceSampler,
    render_openmetrics,
    run_health,
    sampling_supported,
    trace,
    validate_metrics,
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


def _document(**overrides):
    document = {
        "schema": METRICS_SCHEMA,
        "created_unix": 100.0,
        "updated_unix": 101.0,
        "interval_s": 1.0,
        "ring": 8,
        "snapshots": [
            {"ts_unix": 101.0, "counters": {"c": 1.0}, "gauges": {}}
        ],
    }
    document.update(overrides)
    return document


class TestMetricsSchema:
    def test_accepts_minimal_document(self):
        assert validate_metrics(_document()) is not None

    def test_rejects_wrong_schema_tag(self):
        with pytest.raises(ValidationError, match="schema"):
            validate_metrics(_document(schema="bogus/v9"))

    def test_rejects_unknown_snapshot_field(self):
        bad = _document(
            snapshots=[{"ts_unix": 1.0, "counters": {}, "gauges": {},
                        "extra": 1}]
        )
        with pytest.raises(ValidationError, match="unknown snapshot"):
            validate_metrics(bad)

    def test_rejects_overfull_ring(self):
        snapshots = [
            {"ts_unix": float(i), "counters": {}, "gauges": {}}
            for i in range(3)
        ]
        with pytest.raises(ValidationError, match="ring"):
            validate_metrics(_document(ring=2, snapshots=snapshots))

    def test_rejects_bad_progress(self):
        bad = _document(
            snapshots=[{
                "ts_unix": 1.0,
                "counters": {},
                "gauges": {},
                "progress": {"total": "three"},
            }]
        )
        with pytest.raises(ValidationError, match="progress"):
            validate_metrics(bad)

    def test_collects_every_problem(self):
        with pytest.raises(ValidationError) as excinfo:
            validate_metrics(
                {"schema": "nope", "snapshots": "not-a-list"}
            )
        message = str(excinfo.value)
        assert "schema" in message
        assert "snapshots" in message
        assert "interval_s" in message


class TestOpenMetrics:
    def test_counters_gauges_progress_and_eof(self):
        text = render_openmetrics(
            {
                "ts_unix": 5.0,
                "counters": {"cache.hit": 3.0},
                "gauges": {"engine.workers": 4.0},
                "progress": {"total": 10.0, "completed": 2.0},
            }
        )
        assert "# TYPE repro_cache_hit_total counter" in text
        assert "repro_cache_hit_total 3" in text
        assert "# TYPE repro_engine_workers gauge" in text
        assert "repro_engine_progress_total 10" in text
        assert text.rstrip().endswith("# EOF")

    def test_names_are_sanitized(self):
        text = render_openmetrics(
            {"ts_unix": 0.0, "counters": {"a.b-c d": 1.0}, "gauges": {}}
        )
        assert "repro_a_b_c_d_total 1" in text


class TestMetricsExporter:
    def test_flush_writes_valid_json_and_prom(self, tmp_path):
        recorder = Recorder()
        recorder.count("cache.hit", 2)
        recorder.gauge("engine.workers", 4.0)
        exporter = MetricsExporter(recorder, tmp_path / "m.json")
        exporter.flush()
        document = json.loads((tmp_path / "m.json").read_text())
        validate_metrics(document)
        [snapshot] = document["snapshots"]
        assert snapshot["counters"] == {"cache.hit": 2}
        assert "repro_engine_workers 4" in (
            (tmp_path / "m.prom").read_text()
        )

    def test_ring_bounds_snapshots(self, tmp_path):
        recorder = Recorder()
        exporter = MetricsExporter(recorder, tmp_path / "m.json", ring=3)
        for _ in range(7):
            exporter.flush()
        document = json.loads((tmp_path / "m.json").read_text())
        assert len(document["snapshots"]) == 3
        assert document["ring"] == 3
        validate_metrics(document)

    def test_progress_derived_from_heartbeat_gauges(self, tmp_path):
        recorder = Recorder()
        exporter = MetricsExporter(recorder, tmp_path / "m.json")
        recorder.gauge("engine.jobs.total", 10.0)
        recorder.gauge("engine.jobs.completed", 2.0)
        recorder.gauge("engine.jobs.cached", 1.0)
        first = exporter.flush()
        assert first["progress"]["total"] == 10.0
        assert first["progress"]["completed"] == 2.0
        assert first["progress"]["cached"] == 1.0
        recorder.gauge("engine.jobs.completed", 6.0)
        time.sleep(0.01)
        second = exporter.flush()
        assert second["progress"]["rate_jobs_per_s"] > 0.0
        assert second["progress"]["eta_s"] > 0.0

    def test_no_progress_without_heartbeat(self, tmp_path):
        recorder = Recorder()
        exporter = MetricsExporter(recorder, tmp_path / "m.json")
        assert "progress" not in exporter.flush()

    def test_thread_lifecycle_and_final_flush(self, tmp_path):
        recorder = Recorder()
        recorder.count("events")
        exporter = MetricsExporter(
            recorder, tmp_path / "m.json", interval=0.02
        )
        with exporter:
            time.sleep(0.08)
        document = json.loads((tmp_path / "m.json").read_text())
        validate_metrics(document)
        # Periodic ticks plus the final stop() flush.
        assert len(document["snapshots"]) >= 2
        exporter.stop()  # idempotent

    def test_double_start_raises(self, tmp_path):
        exporter = MetricsExporter(Recorder(), tmp_path / "m.json")
        exporter.start()
        try:
            with pytest.raises(ValidationError, match="already running"):
                exporter.start()
        finally:
            exporter.stop()

    def test_rejects_bad_interval_and_ring(self, tmp_path):
        with pytest.raises(ValidationError, match="interval"):
            MetricsExporter(Recorder(), tmp_path / "m.json", interval=0.0)
        with pytest.raises(ValidationError, match="ring"):
            MetricsExporter(Recorder(), tmp_path / "m.json", ring=0)


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
    def test_dead_worker_keeps_recorded_peaks(self):
        pid = os.getpid()
        announce_workers([pid, 4194305])
        recorder = Recorder()
        sampler = ResourceSampler(recorder)
        sampler.sample_once()
        # Only the live PID counts as a worker; the dead one never
        # produced a reading and gets a zeroed placeholder.
        assert recorder.gauges["resource.workers"] == 1.0

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


class TestRunHealth:
    def test_composes_exporter_and_sampler(self, tmp_path):
        recorder = Recorder()
        with trace.recording(recorder):
            with run_health(
                recorder, metrics_path=tmp_path / "m.json", interval=5.0
            ) as health:
                assert health.exporter is not None
                if _LINUX:
                    assert health.sampler is not None
                with trace.span("work"):
                    pass
        document = json.loads((tmp_path / "m.json").read_text())
        validate_metrics(document)
        if _LINUX:
            # The final snapshot (exporter stops after the sampler)
            # carries the sampler's gauges.
            final = document["snapshots"][-1]
            assert final["gauges"]["resource.rss_peak_bytes"] > 0.0

    def test_metrics_path_none_skips_exporter(self):
        recorder = Recorder()
        with run_health(recorder) as health:
            assert health.exporter is None

    def test_sampling_disabled_on_request(self, tmp_path):
        recorder = Recorder()
        with run_health(
            recorder,
            metrics_path=tmp_path / "m.json",
            sample_resources=False,
        ) as health:
            assert health.sampler is None


class TestRunHealthOverheadBudget:
    @pytest.mark.skipif(not _LINUX, reason="needs /proc")
    def test_tick_costs_fit_the_two_percent_budget(self, tmp_path):
        """One second of run-health ticks must cost < 2% of that second.

        At default cadence each wall-clock second holds one exporter
        flush (interval 1.0) and five sampler samples (interval 0.2);
        the summed tick costs must stay under 20ms.  Measuring per-tick
        cost directly (instead of A/B-ing two full runs) keeps the
        assertion robust to machine noise.
        """
        recorder = Recorder()
        # A realistically-sized recorder: dozens of metrics live.
        for i in range(40):
            recorder.count(f"counter.{i}", i)
            recorder.gauge(f"gauge.{i}", float(i))
        recorder.gauge("engine.jobs.total", 100.0)
        recorder.gauge("engine.jobs.completed", 50.0)
        announce_workers([os.getpid()])
        exporter = MetricsExporter(recorder, tmp_path / "m.json")
        sampler = ResourceSampler(recorder)
        exporter.flush()  # warmup: first write pays file creation
        sampler.sample_once()

        ticks = 20
        started = time.perf_counter()
        for _ in range(ticks):
            exporter.flush()
        flush_cost = (time.perf_counter() - started) / ticks

        started = time.perf_counter()
        for _ in range(ticks):
            sampler.sample_once()
        sample_cost = (time.perf_counter() - started) / ticks

        per_second = flush_cost * 1.0 + sample_cost * 5.0
        assert per_second < 0.02
