"""Unit tests for the spec-driven CLI subcommands (run / list)."""

import json

import pytest

from repro.cli import build_parser, main


def write_spec(tmp_path, **overrides):
    payload = {
        "name": "cli-sweep",
        "dataset": {"kind": "synthetic", "spectrum": [40.0, 4.0, 4.0]},
        "scheme": {"kind": "additive", "std": 5.0},
        "attacks": {"UDR": {"kind": "udr"}, "BE-DR": {"kind": "be-dr"}},
        "params": {"n_records": 80},
        "grid": {"scheme.std": [2.0, 5.0]},
        "x_param": "scheme.std",
        "seed": 3,
    }
    payload.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path


class TestParser:
    def test_run_subcommand(self):
        args = build_parser().parse_args(["run", "spec.json", "--jobs", "2"])
        assert args.experiment == "run"
        assert args.spec == "spec.json"
        assert args.jobs == 2

    def test_list_subcommand(self):
        args = build_parser().parse_args(["list", "attacks"])
        assert args.registry == "attacks"

    def test_list_rejects_unknown_registry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "warp-drives"])


class TestListCommand:
    @pytest.mark.parametrize(
        "registry,expected",
        [
            ("schemes", "additive"),
            ("attacks", "be-dr"),
            ("datasets", "census"),
        ],
    )
    def test_lists_registered_keys(self, capsys, registry, expected):
        assert main(["list", registry]) == 0
        out = capsys.readouterr().out
        assert expected in out


class TestRunCommand:
    def test_runs_spec_and_prints_table(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["run", str(path), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cli-sweep" in out
        assert "UDR" in out and "BE-DR" in out

    def test_json_output_is_structured(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["run", str(path), "--no-cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "cli-sweep"
        assert set(payload["series"]) == {"UDR", "BE-DR"}
        assert payload["stats"]["jobs"] == 2

    def test_parallel_matches_serial(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["run", str(path), "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", str(path), "--no-cache", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_reused_across_runs(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        cache_dir = tmp_path / "cache"
        argv = ["run", str(path), "--cache-dir", str(cache_dir), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["stats"]["cached"] == 0
        assert second["stats"]["cached"] == second["stats"]["jobs"]
        assert second["series"] == first["series"]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "task": "no-colon"}))
        assert main(["run", str(path)]) == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_spec_with_backend_field_is_rejected(self, capsys, tmp_path):
        path = write_spec(tmp_path, backend="parallel")
        assert main(["run", str(path), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown spec field(s) ['backend']" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_jobs_flag_sets_the_worker_count(self, jobs, tmp_path):
        from repro.cli import _engine_from_args

        args = build_parser().parse_args(
            ["run", "spec.json", "--jobs", jobs, "--no-cache"]
        )
        engine = _engine_from_args(args)
        assert engine.executor.workers == int(jobs)
        assert engine.cache is None

    def test_cache_dir_flag_selects_the_cache(self, tmp_path):
        from repro.cli import _engine_from_args

        args = build_parser().parse_args(
            ["run", "spec.json", "--cache-dir", str(tmp_path / "c")]
        )
        engine = _engine_from_args(args)
        assert engine.cache is not None
        assert engine.executor.workers == 1

    def test_jobs_two_prints_the_same_result(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["run", str(path), "--no-cache", "--json"]) == 0
        in_process = json.loads(capsys.readouterr().out)
        assert main(
            ["run", str(path), "--no-cache", "--json", "--jobs", "2"]
        ) == 0
        pooled = json.loads(capsys.readouterr().out)
        in_process["stats"].pop("duration", None)
        pooled["stats"].pop("duration", None)
        assert pooled == in_process

    def test_backend_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spec.json", "--backend", "x"])

    def test_plot_flag_draws_chart(self, capsys, tmp_path):
        path = write_spec(tmp_path)
        assert main(["run", str(path), "--no-cache", "--plot"]) == 0
        assert "+" in capsys.readouterr().out
