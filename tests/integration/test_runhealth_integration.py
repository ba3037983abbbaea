"""Integration tests for traced runs: diffs and peak RSS.

Two traced runs of the same spec align span-for-span in ``repro trace
diff``, with a known injected delta reported exactly.  A traced figure
run, in a fresh interpreter, writes one ``metrics`` line whose
``resource.*`` gauges report the parent's peak RSS, and the workers'
only when the run had a pool.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.engine import Engine, Executor, JobSpec
from repro.telemetry import (
    Recorder,
    build_manifest,
    diff_traces,
    read_trace,
    trace,
    traced_run,
    validate_trace,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


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


def _fresh_traced_figure2(path, jobs):
    """Run ``figure2 --trace`` in a fresh interpreter, whose children
    usage starts clean; the run's exit code, its stream's line kinds
    and gauges, and the interpreter's own ``ru_maxrss`` afterwards."""
    argv = [
        "figure2", "--records", "120", "--no-cache", "--jobs", str(jobs),
        "--trace", str(path),
    ]
    code = f"""
        import contextlib, io, json, resource
        from repro.cli import main
        from repro.telemetry import read_trace

        with contextlib.redirect_stdout(io.StringIO()):
            code = main({argv!r})
        kinds = [
            json.loads(line)["kind"]
            for line in open({str(path)!r}).read().splitlines()
        ]
        print(json.dumps({{
            "code": code,
            "kinds": kinds,
            "gauges": read_trace({str(path)!r})["gauges"],
            "maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }}))
    """
    env_path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=env_path),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    sys.platform != "linux", reason="ru_maxrss is read in KiB on Linux"
)
class TestPeakRss:
    def test_serial_run_reports_the_parent_only(self, tmp_path):
        run = _fresh_traced_figure2(tmp_path / "t.jsonl", jobs=1)
        assert run["code"] == 0
        kinds = run["kinds"]
        assert kinds[0] == "header" and kinds[-2:] == ["metrics", "end"]
        assert kinds.count("metrics") == 1
        gauges = run["gauges"]
        assert 0 < gauges["resource.rss_peak_bytes"] <= run["maxrss"] * 1024
        assert gauges["resource.cpu_seconds"] > 0
        # The manifest ran git, but after the gauges were read.
        assert not [g for g in gauges if g.startswith("resource.workers")]

    def test_pooled_run_reports_the_workers(self, tmp_path):
        run = _fresh_traced_figure2(tmp_path / "t.jsonl", jobs=2)
        assert run["code"] == 0
        assert run["kinds"].count("metrics") == 1
        gauges = run["gauges"]
        assert gauges["resource.workers.rss_peak_bytes"] > 0
        assert gauges["resource.workers.cpu_seconds"] > 0
