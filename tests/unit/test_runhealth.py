"""Unit tests for the traced-run harness.

:func:`traced_run` composes a streaming recorder with one ``getrusage``
reading at each end of the block: the run's peak RSS and CPU, and its
reaped workers' when it reaped any, land in the single closing
``metrics`` line.  No thread is started.
"""

from __future__ import annotations

import json
import threading
from types import SimpleNamespace

import pytest

import repro.telemetry.stream as stream_module
from repro.telemetry import fold_trace, trace, traced_run

_GETRUSAGE = stream_module.resource is not None


def _lines(path):
    return path.read_text().splitlines()


class TestTracedRun:
    def test_composes_recorder_and_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        threads = threading.active_count()
        with traced_run(path, manifest=lambda: {"run": "x"}) as recorder:
            assert trace.active_recorder() is recorder
            assert threading.active_count() == threads
            with trace.span("work"):
                pass
        assert trace.active_recorder() is None
        stream = fold_trace(path.read_text())
        assert stream.finished
        assert stream.document["manifest"] == {"run": "x"}
        assert [s["name"] for s in stream.document["spans"]] == ["work"]
        kinds = [json.loads(line)["kind"] for line in _lines(path)]
        assert kinds == ["header", "span", "metrics", "end"]
        if _GETRUSAGE:
            gauges = stream.document["gauges"]
            assert gauges["resource.rss_peak_bytes"] > 0.0
            assert gauges["resource.cpu_seconds"] > 0.0

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
        # The closing metrics line is still written, gauges and all.
        kinds = [json.loads(line)["kind"] for line in _lines(path)]
        assert kinds == ["header", "span", "metrics"]
        if _GETRUSAGE:
            assert stream.document["gauges"]["resource.rss_peak_bytes"] > 0.0
        [span] = stream.document["spans"]
        assert span["attrs"]["error"] == "RuntimeError"

    def test_without_getrusage_still_streams(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stream_module, "resource", None)
        path = tmp_path / "trace.jsonl"
        with traced_run(path):
            trace.count("events")
        stream = fold_trace(path.read_text())
        assert stream.finished
        assert stream.document["counters"] == {"events": 1}
        assert stream.document["gauges"] == {}


def _usage(maxrss, minflt, utime=0.0, stime=0.0):
    return SimpleNamespace(
        ru_maxrss=maxrss, ru_minflt=minflt, ru_utime=utime, ru_stime=stime
    )


class _FakeResource:
    """A ``resource`` module whose readings the test scripts."""

    RUSAGE_SELF = 0
    RUSAGE_CHILDREN = -1

    def __init__(self, own, children_before, children_after):
        self._own = own
        self._children = [children_before, children_after]

    def getrusage(self, who):
        if who == self.RUSAGE_SELF:
            return self._own
        return self._children.pop(0)


class TestUsageGauges:
    def _run(self, tmp_path, monkeypatch, fake, platform="linux"):
        monkeypatch.setattr(stream_module, "resource", fake)
        monkeypatch.setattr(
            stream_module,
            "_MAXRSS_BYTES",
            1 if platform == "darwin" else 1024,
        )
        path = tmp_path / "trace.jsonl"
        with traced_run(path):
            pass
        return fold_trace(path.read_text()).document["gauges"]

    def test_no_reaped_child_writes_no_worker_gauges(
        self, tmp_path, monkeypatch
    ):
        # Inherited children counters are nonzero, but none grew.
        inherited = _usage(maxrss=3008, minflt=5998, utime=0.1)
        fake = _FakeResource(
            _usage(maxrss=40000, minflt=1, utime=0.5, stime=0.25),
            inherited,
            inherited,
        )
        gauges = self._run(tmp_path, monkeypatch, fake)
        assert gauges == {
            "resource.rss_peak_bytes": 40000 * 1024.0,
            "resource.cpu_seconds": 0.75,
        }

    def test_reaped_child_writes_worker_gauges(self, tmp_path, monkeypatch):
        fake = _FakeResource(
            _usage(maxrss=40000, minflt=1, utime=0.5),
            _usage(maxrss=3008, minflt=6014, utime=0.1, stime=0.0),
            _usage(maxrss=35472, minflt=11886, utime=0.6, stime=0.2),
        )
        gauges = self._run(tmp_path, monkeypatch, fake)
        assert gauges["resource.workers.rss_peak_bytes"] == 35472 * 1024.0
        assert gauges["resource.workers.cpu_seconds"] == pytest.approx(0.7)

    def test_failed_block_still_publishes_worker_gauges(
        self, tmp_path, monkeypatch
    ):
        fake = _FakeResource(
            _usage(maxrss=40000, minflt=1, utime=0.5),
            _usage(maxrss=0, minflt=10),
            _usage(maxrss=2000, minflt=20, utime=0.3),
        )
        monkeypatch.setattr(stream_module, "resource", fake)
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError):
            with traced_run(path):
                raise RuntimeError("worker died")
        stream = fold_trace(path.read_text())
        assert not stream.finished
        assert stream.document["gauges"] == {
            "resource.rss_peak_bytes": 40000 * stream_module._MAXRSS_BYTES,
            "resource.cpu_seconds": 0.5,
            "resource.workers.rss_peak_bytes": (
                2000 * stream_module._MAXRSS_BYTES
            ),
            "resource.workers.cpu_seconds": 0.3,
        }

    def test_macos_maxrss_is_already_bytes(self, tmp_path, monkeypatch):
        fake = _FakeResource(
            _usage(maxrss=5_000_000, minflt=1),
            _usage(maxrss=0, minflt=0),
            _usage(maxrss=0, minflt=0),
        )
        gauges = self._run(tmp_path, monkeypatch, fake, platform="darwin")
        assert gauges["resource.rss_peak_bytes"] == 5_000_000.0

    def test_gauges_are_published_before_the_manifest_is_built(
        self, tmp_path, monkeypatch
    ):
        # The manifest spawns git and uname, which must not count as
        # workers: the children are read before it runs.
        fake = _FakeResource(
            _usage(maxrss=1, minflt=1),
            _usage(maxrss=0, minflt=0),
            _usage(maxrss=0, minflt=0),
        )
        monkeypatch.setattr(stream_module, "resource", fake)
        seen = []

        def manifest():
            seen.append(dict(recorder.gauges))
            return {}

        path = tmp_path / "trace.jsonl"
        with traced_run(path, manifest=manifest) as recorder:
            pass
        assert seen == [{
            "resource.rss_peak_bytes": 1024.0,
            "resource.cpu_seconds": 0.0,
        }]
