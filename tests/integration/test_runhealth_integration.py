"""Integration tests for the run-health layer.

Pins the acceptance behaviors end to end: two traced runs of the same
spec align span-for-span in ``repro trace diff`` with a known injected
delta reported exactly; the engine's heartbeat gauges and the resource
sampler's gauges land in real trace streams, which validate, render,
and watch through the CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.engine import Engine, Executor, JobSpec
from repro.telemetry import (
    Recorder,
    build_manifest,
    diff_traces,
    fold_trace,
    read_trace,
    sampling_supported,
    trace,
    traced_run,
    validate_trace,
)


def _job_specs(n=3, n_records=60, seed_root=13):
    params = {
        "dataset": {"kind": "synthetic", "spectrum": [50.0, 20.0, 5.0]},
        "scheme": {"kind": "additive", "std": 2.0},
        "attacks": {"UDR": {"kind": "udr"}},
        "n_records": n_records,
    }
    return [
        JobSpec(
            task="repro.api.tasks:attack_point",
            params=params,
            seed_root=seed_root,
            seed_path=(0, i),
        )
        for i in range(n)
    ]


def _traced_stream(path, **kwargs):
    with traced_run(path):
        Engine(executor=Executor()).run(_job_specs(**kwargs))
    return path


def _traced_document(manifest=None, **kwargs):
    recorder = Recorder()
    with trace.recording(recorder):
        Engine(executor=Executor()).run(_job_specs(**kwargs))
    document = recorder.to_document(manifest=manifest)
    validate_trace(document)
    return document


class TestTraceDiffEndToEnd:
    def test_same_spec_runs_align_completely(self):
        a = _traced_document()
        b = _traced_document()
        diff = diff_traces(a, b)
        statuses = {row["status"] for row in diff["spans"]}
        assert statuses == {"common"}

    def test_injected_slowdown_reported_exactly(self):
        a = _traced_document()
        b = json.loads(json.dumps(a))  # deep copy via round-trip
        # Slow one job down by exactly 1.0s in B (and stretch its
        # parent to keep the tree self-consistent).
        victim = b["spans"][0]["children"][0]
        assert victim["name"] == "engine.job"
        victim["duration"] += 1.0
        b["spans"][0]["duration"] += 1.0
        diff = diff_traces(a, b)
        key = victim["attrs"]["key"]
        [row] = [
            r
            for r in diff["spans"]
            if r["name"] == "engine.job" and f"[{key}]" in r["path"]
        ]
        assert row["delta"] == pytest.approx(1.0)
        assert row["delta_self"] == pytest.approx(1.0)
        # The run span grew by 1.0 in duration but not in self-time:
        # the attribution points at the job, not its container.
        [run] = [r for r in diff["spans"] if r["name"] == "engine.run"]
        assert run["delta"] == pytest.approx(1.0)
        assert run["delta_self"] == pytest.approx(0.0, abs=1e-9)
        assert diff["b"]["total_s"] - diff["a"]["total_s"] == (
            pytest.approx(1.0)
        )

    def test_different_seed_root_changes_every_job(self):
        a = _traced_document(seed_root=13)
        b = _traced_document(seed_root=14)
        diff = diff_traces(a, b)
        jobs = [r for r in diff["spans"] if r["name"] == "engine.job"]
        assert all(row["status"] in {"added", "removed"} for row in jobs)

    def test_manifest_delta_through_real_manifests(self):
        manifest_a = build_manifest(extra={"run": "a"})
        manifest_b = dict(manifest_a)
        manifest_b["packages"] = dict(manifest_a["packages"])
        manifest_b["packages"]["numpy"] = "99.0.0"
        diff = diff_traces(
            _traced_document(manifest=manifest_a),
            _traced_document(manifest=manifest_b),
        )
        [change] = [
            c for c in diff["manifest"] if c["field"] == "packages.numpy"
        ]
        assert change["b"] == "99.0.0"

    def test_cli_trace_diff(self, tmp_path, capsys):
        path_a = _traced_stream(tmp_path / "a.jsonl")
        path_b = _traced_stream(tmp_path / "b.jsonl")
        assert main(["trace", "diff", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert "trace diff (B - A)" in out

    def test_streams_of_the_same_spec_align_completely(self, tmp_path):
        diff = diff_traces(
            read_trace(_traced_stream(tmp_path / "a.jsonl")),
            read_trace(_traced_stream(tmp_path / "b.jsonl")),
        )
        assert {row["status"] for row in diff["spans"]} == {"common"}

    def test_cli_trace_diff_wrong_arity(self, tmp_path, capsys):
        assert main(["trace", "diff", "only-one.json"]) == 2
        assert "exactly two" in capsys.readouterr().err


class TestHeartbeatAndResources:
    def test_heartbeat_gauges_in_trace_document(self):
        document = _traced_document()
        gauges = document["gauges"]
        assert gauges["engine.jobs.total"] == 3.0
        assert gauges["engine.jobs.completed"] == 3.0
        assert gauges["engine.jobs.cached"] == 0.0

    def test_heartbeat_gauges_in_trace_stream(self, tmp_path):
        stream = fold_trace(_traced_stream(tmp_path / "t.jsonl").read_text())
        assert stream.finished
        final = stream.metrics[-1]["gauges"]
        assert final["engine.jobs.total"] == 3.0
        assert final["engine.jobs.completed"] == 3.0
        assert final["engine.jobs.cached"] == 0.0

    @pytest.mark.skipif(
        not sampling_supported(), reason="needs /proc"
    )
    def test_resource_gauges_reach_the_trace(self, tmp_path):
        document = validate_trace(
            read_trace(_traced_stream(tmp_path / "t.jsonl"))
        )
        assert document["gauges"]["resource.rss_peak_bytes"] > 0.0
        assert document["counters"]["resource.samples"] >= 1

    def test_cli_validate_render_and_watch_a_stream(self, tmp_path, capsys):
        path = str(_traced_stream(tmp_path / "t.jsonl"))
        assert main(["trace", path, "--validate"]) == 0
        assert "valid repro-trace/v2 stream" in capsys.readouterr().out
        assert main(["trace", path]) == 0
        assert "engine.run" in capsys.readouterr().out
        assert main(["watch", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "3/3 jobs (100%, 0 cached)" in out
        assert "run complete" in out

