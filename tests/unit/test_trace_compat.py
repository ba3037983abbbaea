"""Traces recorded by older builds still load, render and diff.

Older builds attached a per-kernel convergence payload to span attrs,
wrote per-kernel heartbeat metrics (``kernel.linalg.cholesky.fits``
and the like) into the metrics lines, and gave each manifest job row a
per-kernel ``convergence`` summary.  None of that is produced any more,
but span ``attrs`` and manifest job rows are open dicts and metric
names are free-form, so such a stream must pass every ``repro trace``
command unchanged and show no section for the retired payload.

Each case below is one payload shape an older build could write,
including shapes the old payload checks rejected (malformed fields, a
foreign schema tag): the current validator reads them as opaque attrs.

Builds up to the ``getrusage`` change also wrote a ``metrics`` line at
most once a second, the engine's ``engine.jobs.*`` progress gauges and
a ``/proc`` sampler's ``resource.*`` gauges, per worker PID included;
:class:`TestSamplerEraTraces` reads such a stream.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.telemetry import TRACE_SCHEMA, diff_traces, fold_trace, read_trace
from repro.telemetry.schema import validate_trace
from repro.telemetry.viewer import render_trace

_PAYLOADS = {
    "cholesky": {
        "kernel": "linalg.cholesky",
        "iterations": 1,
        "rejections": 0,
        "nonfinite": 0,
        "converged": True,
        "final_delta": 0.0,
        "delta": [0.0],
    },
    "kalman-filter": {
        "kernel": "kalman.filter",
        "iterations": 4,
        "rejections": 0,
        "nonfinite": 0,
        "final_delta": 0.7,
        "delta": [1.5, 1.1, 0.9, 0.7],
        "condition": [3.0, 2.5, 2.4, 2.4],
    },
    "zero-iterations": {
        "kernel": "cold.start",
        "iterations": 0,
        "rejections": 0,
        "nonfinite": 0,
        "converged": False,
    },
    "nan-objective": {
        "kernel": "sick.fit",
        "iterations": 2,
        "rejections": 0,
        "nonfinite": 1,
        "converged": False,
        "final_objective": "__nan__",
        "objective": [-1.0, "__nan__"],
    },
    "exhausted-retries": {
        "kernel": "linalg.cholesky",
        "iterations": 12,
        "rejections": 12,
        "nonfinite": 0,
        "converged": False,
        "final_delta": 10.0,
    },
    "truncated": {
        "kernel": "kalman.filter",
        "iterations": 20000,
        "rejections": 0,
        "nonfinite": 0,
        "truncated": True,
        "delta": [0.5] * 16,
    },
    "malformed-fields": {
        "kernel": "em.fit",
        "iterations": "many",
        "converged": "yes",
        "delta": "not-a-list",
    },
    "foreign-schema-tag": {
        "schema": "something-else/v1",
        "kernel": "em.fit",
        "something_new": {"nested": [1, 2]},
    },
}

_SUMMARY = {
    "fits": 1,
    "iterations": 1,
    "rejections": 0,
    "nonfinite": 0,
    "nonconverged": 0,
}


def _records(payload):
    """The lines an older build wrote for a one-job traced run."""
    attrs = {"dim": 8}
    if payload is not None:
        attrs["convergence"] = copy.deepcopy(payload)
    span = {"kind": "span", "start_unix": 10.0}
    job_attrs = {"key": "0c47e0dab94ed9fb", "cached": False}
    job_row = {
        "key": "0c47e0dab94ed9fb",
        "task": "repro.api.tasks:attack_point",
        "duration": 0.004,
        "cached": False,
    }
    counters = {"pipeline.records": 300}
    gauges = {
        "engine.jobs.total": 1.0,
        "engine.jobs.completed": 1.0,
        "engine.jobs.cached": 0.0,
    }
    if payload is not None:
        job_row["convergence"] = {payload["kernel"]: dict(_SUMMARY)}
        counters[f"kernel.{payload['kernel']}.fits"] = 1
        gauges[f"kernel.{payload['kernel']}.iterations"] = 1.0
        gauges[f"kernel.{payload['kernel']}.converged"] = 1.0
    return [
        {"kind": "header", "schema": TRACE_SCHEMA, "created_unix": 10.0},
        {**span, "id": 2, "parent": 1, "name": "linalg.cholesky",
         "duration": 0.001, "attrs": attrs},
        {**span, "id": 1, "parent": 0, "name": "engine.job",
         "duration": 0.004, "attrs": job_attrs},
        {**span, "id": 0, "parent": None, "name": "engine.run",
         "duration": 0.005, "attrs": {"jobs": 1, "workers": 1}},
        {"kind": "metrics", "ts_unix": 10.01, "counters": counters,
         "gauges": gauges},
        {"kind": "end", "ts_unix": 10.02, "manifest": {
            "kind": "repro-manifest/v1",
            "git_revision": None,
            "spec": {"name": "mini", "task": "repro.api.tasks:attack_point"},
            "jobs": [job_row],
        }},
    ]


def _write(path, payload):
    text = "".join(json.dumps(record) + "\n" for record in _records(payload))
    path.write_text(text)
    return path


@pytest.fixture(params=sorted(_PAYLOADS))
def older_trace(request, tmp_path):
    return _write(tmp_path / "older.jsonl", _PAYLOADS[request.param])


class TestOlderTraces:
    def test_validates_without_warnings(self, older_trace, capsys):
        assert main(["trace", str(older_trace), "--validate"]) == 0
        out, err = capsys.readouterr()
        assert f"valid {TRACE_SCHEMA} stream" in out
        assert err == ""

    def test_renders_every_span_and_no_convergence_section(
        self, older_trace, capsys
    ):
        assert main(["trace", str(older_trace)]) == 0
        out = capsys.readouterr().out
        for name in ("engine.run", "engine.job", "linalg.cholesky"):
            assert name in out
        assert "convergence:" not in out

    def test_folds_to_a_finished_run_without_a_kernel_section(
        self, older_trace
    ):
        stream = fold_trace(older_trace.read_text())
        assert stream.finished
        # The retired progress gauges read back as ordinary gauges.
        assert stream.document["gauges"]["engine.jobs.completed"] == 1.0
        rendered = render_trace(validate_trace(stream.document))
        assert "engine.jobs.completed=1" in rendered
        assert "kernels:" not in rendered
        assert "resources:" not in rendered

    def test_diffs_against_a_payload_free_run_span_for_span(
        self, older_trace, tmp_path, capsys
    ):
        current = _write(tmp_path / "current.jsonl", None)
        assert main(["trace", "diff", str(older_trace), str(current)]) == 0
        out = capsys.readouterr().out
        assert "only in" not in out
        assert "convergence" not in out
        diff = diff_traces(
            validate_trace(read_trace(older_trace)),
            validate_trace(read_trace(current)),
        )
        assert "convergence" not in diff
        assert {row["status"] for row in diff["spans"]} == {"common"}


class TestOlderTraceFold:
    def test_payload_survives_the_fold_as_opaque_attrs(self, tmp_path):
        path = _write(tmp_path / "older.jsonl", _PAYLOADS["nan-objective"])
        document = validate_trace(read_trace(path))
        (run,) = document["spans"]
        (cholesky,) = run["children"][0]["children"]
        # Read back verbatim: nothing decodes the old NaN sentinel.
        assert cholesky["attrs"]["convergence"]["final_objective"] == (
            "__nan__"
        )
        assert "convergence:" not in render_trace(document)

    def test_kernel_metrics_render_as_ordinary_counters(self, tmp_path):
        path = _write(tmp_path / "older.jsonl", _PAYLOADS["cholesky"])
        document = validate_trace(read_trace(path))
        assert document["counters"]["kernel.linalg.cholesky.fits"] == 1
        assert "kernel.linalg.cholesky.fits" in render_trace(document)


_MIB = 1024.0 * 1024.0


def _job_spans(start_id):
    """engine.run with two engine.job children, ids from ``start_id``."""
    span = {"kind": "span", "start_unix": 20.0, "duration": 0.004}
    run_id = start_id + 2
    return [
        {**span, "id": start_id, "parent": run_id, "name": "engine.job",
         "attrs": {"key": "aa11", "cached": False, "worker": 4101}},
        {**span, "id": start_id + 1, "parent": run_id, "name": "engine.job",
         "attrs": {"key": "bb22", "cached": False, "worker": 4102}},
        {**span, "id": run_id, "parent": None, "name": "engine.run",
         "duration": 0.01, "attrs": {"jobs": 2, "workers": 2, "cached": 0}},
    ]


def _sampler_era_records():
    """A pooled run as the ``/proc`` sampler era streamed it."""
    gauges = {
        "engine.jobs.total": 2.0,
        "engine.jobs.completed": 0.0,
        "engine.jobs.cached": 0.0,
        "resource.rss_bytes": 80 * _MIB,
        "resource.rss_peak_bytes": 80 * _MIB,
        "resource.cpu_seconds": 1.0,
    }
    workers = {
        "resource.workers": 2.0,
        "resource.workers.rss_bytes": 110 * _MIB,
        "resource.workers.rss_peak_bytes": 60 * _MIB,
        "resource.workers.cpu_seconds": 2.0,
        "resource.worker.4101.rss_peak_bytes": 60 * _MIB,
        "resource.worker.4101.cpu_seconds": 1.25,
        "resource.worker.4102.rss_peak_bytes": 50 * _MIB,
        "resource.worker.4102.cpu_seconds": 0.75,
    }
    final = {
        **gauges,
        **workers,
        "engine.jobs.completed": 2.0,
        "resource.rss_peak_bytes": 90 * _MIB,
        "resource.cpu_seconds": 1.5,
    }
    return [
        {"kind": "header", "schema": TRACE_SCHEMA, "created_unix": 20.0},
        {"kind": "metrics", "ts_unix": 20.001,
         "counters": {"resource.samples": 1}, "gauges": gauges},
        *_job_spans(0),
        {"kind": "metrics", "ts_unix": 21.2,
         "counters": {"resource.samples": 6},
         "gauges": {**gauges, **workers, "engine.jobs.completed": 1.0}},
        {"kind": "metrics", "ts_unix": 21.3,
         "counters": {"resource.samples": 7}, "gauges": final},
        {"kind": "end", "ts_unix": 21.4, "manifest": {
            "kind": "repro-manifest/v1", "git_revision": None, "jobs": [],
        }},
    ]


def _getrusage_records():
    """The same spans as a current build streams them."""
    return [
        {"kind": "header", "schema": TRACE_SCHEMA, "created_unix": 30.0},
        *_job_spans(0),
        {"kind": "metrics", "ts_unix": 30.2, "counters": {}, "gauges": {
            "resource.rss_peak_bytes": 45 * _MIB,
            "resource.cpu_seconds": 0.5,
            "resource.workers.rss_peak_bytes": 35 * _MIB,
            "resource.workers.cpu_seconds": 0.25,
        }},
        {"kind": "end", "ts_unix": 30.3, "manifest": {
            "kind": "repro-manifest/v1", "git_revision": None, "jobs": [],
        }},
    ]


def _write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestSamplerEraTraces:
    @pytest.fixture
    def older(self, tmp_path):
        return _write_records(tmp_path / "older.jsonl", _sampler_era_records())

    def test_validates_without_warnings(self, older, capsys):
        assert main(["trace", str(older), "--validate"]) == 0
        out, err = capsys.readouterr()
        assert f"valid {TRACE_SCHEMA} stream" in out
        assert err == ""

    def test_the_last_metrics_line_is_the_one_read(self, older):
        document = validate_trace(read_trace(older))
        assert document["counters"] == {"resource.samples": 7}
        assert document["gauges"]["engine.jobs.completed"] == 2.0
        assert document["gauges"]["resource.rss_peak_bytes"] == 90 * _MIB

    def test_renders_parent_and_workers_lines(self, older, capsys):
        assert main(["trace", str(older)]) == 0
        out = capsys.readouterr().out
        assert "\nresources:\n" in out
        assert "  parent   rss peak 90.0MiB  cpu 1.50s" in out
        assert "  workers  rss peak 60.0MiB  cpu 2.00s" in out
        # Per-PID gauges are neither tabulated nor dumped as gauges.
        assert "4101" not in out.split("resources:")[1].split("\n\n")[0]
        assert "resource.worker." not in out
        assert "engine.jobs.completed=2" in out

    def test_renders_like_the_new_layout(self, tmp_path):
        new = _write_records(tmp_path / "new.jsonl", _getrusage_records())
        rendered = render_trace(validate_trace(read_trace(new)))
        assert "  parent   rss peak 45.0MiB  cpu 500.0ms" in rendered
        assert "  workers  rss peak 35.0MiB  cpu 250.0ms" in rendered

    def test_diffs_span_for_span_against_the_new_layout(
        self, older, tmp_path, capsys
    ):
        new = _write_records(tmp_path / "new.jsonl", _getrusage_records())
        assert main(["trace", "diff", str(older), str(new)]) == 0
        assert "only in" not in capsys.readouterr().out
        diff = diff_traces(
            validate_trace(read_trace(older)),
            validate_trace(read_trace(new)),
        )
        assert len(diff["spans"]) == 3
        assert {row["status"] for row in diff["spans"]} == {"common"}
