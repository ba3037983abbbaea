"""Unit tests for the benchmark subsystem behind ``repro bench``."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.registry import (
    _REGISTRY,
    BenchmarkCase,
    iter_benchmarks,
    register_benchmark,
)
from repro.bench.runner import (
    SCHEMA,
    compare_to_baseline,
    load_payload,
    render_comparison,
    default_baseline_path,
    render_report,
    run_benchmarks,
    time_case,
    write_payload,
)
from repro.cli import main
from repro.exceptions import ValidationError


@pytest.fixture
def scratch_case():
    """Register a trivial benchmark; unregister on teardown."""
    calls = {"setup": 0, "run": 0}

    @register_benchmark(
        "test.scratch.smoke",
        group="test",
        tags=("smoke", "scratch"),
        params={"n": 1},
    )
    def _setup():
        calls["setup"] += 1

        def run():
            calls["run"] += 1

        return run

    yield calls
    _REGISTRY.pop("test.scratch.smoke", None)


class TestRegistry:
    def test_register_and_filter(self, scratch_case):
        names = [case.name for case in iter_benchmarks("scratch")]
        assert names == ["test.scratch.smoke"]

    def test_filter_matches_substring_and_tag(self, scratch_case):
        assert iter_benchmarks("test.scratch")  # name substring
        assert iter_benchmarks("scratch")  # exact tag
        assert not any(
            c.name == "test.scratch.smoke" for c in iter_benchmarks("nope")
        )

    def test_duplicate_name_rejected(self, scratch_case):
        with pytest.raises(ValidationError, match="already registered"):
            register_benchmark("test.scratch.smoke", group="test")(lambda: None)

    def test_case_matches(self):
        case = BenchmarkCase(
            name="a.b.c", group="g", setup=lambda: (lambda: None), tags=("t",)
        )
        assert case.matches("b.c")
        assert case.matches("t")
        assert not case.matches("z")


class TestTimeCase:
    def test_warmup_plus_repeats(self, scratch_case):
        case = _REGISTRY["test.scratch.smoke"]
        entry = time_case(case, repeat=2)
        assert scratch_case["setup"] == 1
        assert scratch_case["run"] == 3  # 1 warmup + 2 timed
        assert len(entry["seconds"]) == 2
        assert entry["seconds_min"] == min(entry["seconds"])
        assert entry["group"] == "test"
        assert entry["params"] == {"n": 1}

    def test_case_repeat_override(self):
        ran = []
        case = BenchmarkCase(
            name="t.override",
            group="test",
            setup=lambda: (lambda: ran.append(1)),
            repeat=1,
        )
        entry = time_case(case, repeat=5)
        assert len(entry["seconds"]) == 1  # case repeat wins

    def test_invalid_repeat(self, scratch_case):
        case = _REGISTRY["test.scratch.smoke"]
        with pytest.raises(ValidationError, match="repeat"):
            time_case(case, repeat=0)


class TestRunBenchmarks:
    def test_payload_shape(self, scratch_case):
        payload = run_benchmarks(filter_token="scratch", repeat=1)
        assert payload["schema"] == SCHEMA
        assert payload["filter"] == "scratch"
        assert "test.scratch.smoke" in payload["benchmarks"]

    def test_no_match_raises(self):
        with pytest.raises(ValidationError, match="no benchmarks match"):
            run_benchmarks(filter_token="definitely-not-a-benchmark")

    def test_progress_hook(self, scratch_case):
        seen = []
        run_benchmarks(
            filter_token="scratch",
            repeat=1,
            progress=lambda case, entry: seen.append(case.name),
        )
        assert seen == ["test.scratch.smoke"]


class TestPayloadIO:
    def test_write_and_load_roundtrip(self, scratch_case, tmp_path):
        payload = run_benchmarks(filter_token="scratch", repeat=1)
        target = tmp_path / "BENCH_test.json"
        assert write_payload(payload, target) == target
        loaded = load_payload(target)
        assert loaded["benchmarks"].keys() == payload["benchmarks"].keys()

    def test_write_writes_exactly_one_file(
        self, scratch_case, tmp_path, monkeypatch
    ):
        # Even inside a checkout (a baseline is present), the payload
        # lands only at the path given.
        baseline = tmp_path / "benchmarks" / "baselines" / "BENCH_BASELINE.json"
        baseline.parent.mkdir(parents=True)
        baseline.write_text("{}")
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.rglob("*"))
        payload = run_benchmarks(filter_token="scratch", repeat=1)
        target = tmp_path / "BENCH_one.json"
        write_payload(payload, target)
        assert set(tmp_path.rglob("*")) - before == {target}

    def test_load_rejects_non_payload(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"not": "a payload"}))
        with pytest.raises(ValidationError, match="benchmarks"):
            load_payload(bogus)


class TestDefaultBaseline:
    def test_found_from_a_repo_subdirectory(self, tmp_path, monkeypatch):
        baseline = tmp_path / "benchmarks" / "baselines" / "BENCH_BASELINE.json"
        baseline.parent.mkdir(parents=True)
        baseline.write_text("{}")
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        monkeypatch.chdir(nested)
        assert default_baseline_path() == baseline.resolve()

    def test_none_outside_a_checkout(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert default_baseline_path() is None

    def test_committed_baseline_holds_only_registered_cases(
        self, monkeypatch
    ):
        import repro.bench.hotpaths  # noqa: F401  (case registration)
        import repro.bench.telemetry  # noqa: F401

        monkeypatch.chdir(pathlib.Path(__file__).parent)
        baseline = load_payload(default_baseline_path())
        registered = {case.name for case in iter_benchmarks()}
        assert set(baseline["benchmarks"]) <= registered


class TestCompare:
    @staticmethod
    def _payload(**times):
        return {
            "schema": SCHEMA,
            "benchmarks": {
                name: {"seconds_min": t, "seconds_mean": t, "seconds": [t]}
                for name, t in times.items()
            },
        }

    def test_speedup_and_regression_flags(self):
        baseline = self._payload(a=1.0, b=1.0, c=1.0)
        current = self._payload(a=0.5, b=2.0, d=1.0)
        result = compare_to_baseline(current, baseline, regression_ratio=1.5)
        rows = {row["name"]: row for row in result["rows"]}
        assert rows["a"]["speedup"] == pytest.approx(2.0)
        assert rows["b"]["ratio"] == pytest.approx(2.0)
        assert result["regressions"] == ["b"]
        assert result["missing"] == ["d"]

    def test_render_helpers(self):
        baseline = self._payload(a=1.0)
        current = self._payload(a=0.25)
        comparison = compare_to_baseline(current, baseline)
        report = render_report(current)
        assert "a" in report and "0.2500" in report
        table = render_comparison(comparison)
        assert "4.00x" in table

    def test_render_empty_comparison(self):
        comparison = compare_to_baseline(self._payload(a=1.0), self._payload())
        assert "no overlapping" in render_comparison(comparison)


class TestBenchCLI:
    def test_list(self, capsys):
        assert main(["bench", "--list", "--filter", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "hotpath.em_recon.smoke" in out
        # The figure pipelines are perfbench's to time, not repro bench's.
        assert "pipeline." not in out

    def test_run_single_benchmark_with_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "BENCH_cli.json"
        code = main(
            [
                "bench",
                "--filter",
                "hotpath.breach_metrics.smoke",
                "--repeat",
                "1",
                "--no-baseline",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert "hotpath.breach_metrics.smoke" in payload["benchmarks"]

    def test_run_compares_against_committed_baseline_from_subdirectory(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(pathlib.Path(__file__).parent)
        code = main(
            ["bench", "--filter", "hotpath.breach_metrics.smoke", "--repeat", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "benchmarks/baselines/BENCH_BASELINE.json:" in out
        assert "no overlapping benchmarks" not in out

    def test_unknown_filter_exits_2(self, capsys):
        assert main(["bench", "--filter", "no-such-bench"]) == 2

    def test_fail_on_regression(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        baseline = {
            "schema": SCHEMA,
            "benchmarks": {
                "hotpath.breach_metrics.smoke": {
                    "seconds_min": 1e-9,
                    "seconds_mean": 1e-9,
                    "seconds": [1e-9],
                }
            },
        }
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(baseline))
        code = main(
            [
                "bench",
                "--filter",
                "hotpath.breach_metrics.smoke",
                "--repeat",
                "1",
                "--baseline",
                str(base_path),
                "--fail-on-regression",
            ]
        )
        assert code == 1
