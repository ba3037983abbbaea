"""Integration tests for the run-health layer.

Pins the ISSUE's acceptance behaviors end to end: two traced runs of
the same spec align span-for-span in ``repro trace diff`` with a known
injected delta reported exactly; the engine's heartbeat gauges and the
resource sampler's gauges land in real trace documents; ``--metrics``
rings are valid and viewable; and ``repro bench history`` folds real
bench payloads into timelines through the CLI.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.engine import Engine, Executor, JobSpec
from repro.telemetry import (
    Recorder,
    build_manifest,
    diff_traces,
    run_health,
    sampling_supported,
    trace,
    validate_metrics,
    validate_trace,
    write_trace,
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
        manifest_a = build_manifest(rows=[], extra={"run": "a"})
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
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_trace(_traced_document(), path_a)
        write_trace(_traced_document(), path_b)
        assert main(["trace", "diff", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert "trace diff (B - A)" in out

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

    @pytest.mark.skipif(
        not sampling_supported(), reason="needs /proc"
    )
    def test_run_health_grafts_resource_gauges_into_trace(self, tmp_path):
        recorder = Recorder()
        with trace.recording(recorder):
            with run_health(
                recorder, metrics_path=tmp_path / "m.json", interval=5.0
            ):
                Engine(executor=Executor()).run(_job_specs())
        document = recorder.to_document()
        validate_trace(document)
        assert document["gauges"]["resource.rss_peak_bytes"] > 0.0
        metrics = json.loads((tmp_path / "m.json").read_text())
        validate_metrics(metrics)
        final = metrics["snapshots"][-1]
        assert final["progress"]["completed"] == 3.0

    def test_cli_metrics_view_and_validate(self, tmp_path, capsys):
        recorder = Recorder()
        with trace.recording(recorder):
            with run_health(
                recorder, metrics_path=tmp_path / "m.json", interval=5.0
            ):
                Engine(executor=Executor()).run(_job_specs())
        path = str(tmp_path / "m.json")
        assert main(["metrics", path, "--validate"]) == 0
        assert "valid repro-metrics/v1" in capsys.readouterr().out
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "snapshot(s)" in out
        assert "3/3 jobs" in out
        assert main(["metrics", path, "--prom"]) == 0
        assert "# EOF" in capsys.readouterr().out


class TestBenchHistoryEndToEnd:
    def _payload(self, tmp_path, name, repeat):
        from repro.bench.runner import run_benchmarks

        import repro.bench.telemetry  # noqa: F401  (case registration)

        payload = run_benchmarks(
            filter_token="span_overhead", repeat=repeat
        )
        path = tmp_path / name
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path, payload

    def test_cli_bench_history_over_real_payloads(self, tmp_path, capsys):
        path_a, _ = self._payload(tmp_path, "BENCH_A.json", 2)
        path_b, _ = self._payload(tmp_path, "BENCH_B.json", 2)
        assert main(
            ["bench", "history", str(path_a), str(path_b), "--no-baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "bench history: 2 run(s)" in out
        assert "telemetry.span_overhead.smoke" in out

    def test_cli_bench_history_defaults_to_committed_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        repo = pathlib.Path(__file__).resolve().parents[2]
        committed = json.loads(
            (repo / "benchmarks/baselines/BENCH_BASELINE.json").read_text()
        )
        path, _ = self._payload(tmp_path, "BENCH_A.json", 1)
        out_path = tmp_path / "history.json"
        monkeypatch.chdir(repo / "tests")  # a subdirectory of the checkout
        assert main(
            ["bench", "history", str(path), "--json", str(out_path)]
        ) == 0
        case = json.loads(out_path.read_text())["cases"][
            "telemetry.span_overhead.smoke"
        ]
        assert case["baseline_s"] == committed["benchmarks"][
            "telemetry.span_overhead.smoke"
        ]["seconds_min"]

    def test_cli_bench_history_without_files_errors(self, capsys):
        assert main(["bench", "history"]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_cli_bench_unknown_subcommand_errors(self, capsys):
        assert main(["bench", "histry"]) == 2
        assert "unknown bench subcommand" in capsys.readouterr().err
