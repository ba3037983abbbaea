"""Unit tests for the repro CLI."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

_REPO = pathlib.Path(__file__).resolve().parents[2]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.experiment == "figure1"
        assert args.records == 2000
        assert args.trials == 1
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["figure3", "--records", "500", "--trials", "2", "--seed", "9"]
        )
        assert args.records == 500
        assert args.trials == 2
        assert args.seed == 9

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["figure1", "--jobs", "4", "--no-cache", "--cache-dir", "/tmp/x"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/x"

    def test_theorem52_subcommand(self):
        args = build_parser().parse_args(["theorem52"])
        assert args.experiment == "theorem52"
        assert args.jobs == 1

    def test_ablation_subcommands_exist(self):
        for name in (
            "ablation-selection",
            "ablation-covariance",
            "ablation-samplesize",
            "ablation-utility",
            "ablation-marginals",
        ):
            args = build_parser().parse_args([name])
            assert args.experiment == name
            assert args.no_cache is False

    def test_plot_flag(self):
        args = build_parser().parse_args(["figure1", "--plot"])
        assert args.plot is True

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_help_lists_no_bench(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "bench" not in out

    @pytest.mark.parametrize("command", ["watch", "check"])
    def test_deleted_subcommand_is_not_a_command(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "t.jsonl"])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert command not in capsys.readouterr().out

    def test_bench_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.bench")


class TestMain:
    def test_theorem52_prints_table(self, capsys):
        assert main(["theorem52", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "empirical" in out and "analytic" in out

    def test_figure1_small_run(self, capsys):
        code = main(
            ["figure1", "--records", "200", "--seed", "1", "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BE-DR" in out and "UDR" in out
        assert "number of attributes" in out

    def test_plot_flag_draws_chart(self, capsys):
        code = main(
            ["figure1", "--records", "200", "--seed", "1", "--no-cache",
             "--plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_parallel_matches_serial(self, capsys, tmp_path):
        argv = ["figure1", "--records", "200", "--seed", "1"]
        assert main(argv + ["--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--no-cache", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_cache_dir_populated_and_reused(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = [
            "figure1", "--records", "200", "--seed", "1",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        entries = list(cache_dir.glob("??/*.json"))
        assert len(entries) == 11  # one job per sweep point

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert second == first
        assert set(cache_dir.glob("??/*.json")) == set(entries)


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "figure", ["figure1", "figure2", "figure3", "figure4"]
    )
    @pytest.mark.parametrize(
        "flags",
        [
            ["--records", "1"],
            ["--trials", "0"],
            ["--noise-std", "-1"],
            ["--noise-std", "nan"],
            ["--seed", "-5"],
        ],
    )
    def test_invalid_figure_config_is_one_error_line(
        self, figure, flags, capsys
    ):
        assert main([figure, "--no-cache", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "t.jsonl", "--top", "-3"],
            ["trace", "t.jsonl", "--depth", "-1"],
            ["trace", "diff", "a.jsonl", "b.jsonl", "--top", "-3"],
            ["figure1", "--jobs", "-1"],
        ],
    )
    def test_negative_counts_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "t.jsonl", "--top", "abc"],
            ["trace", "t.jsonl", "--depth", "1.5"],
            ["figure1", "--jobs", "two"],
        ],
    )
    def test_non_integer_counts_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be an integer, got {argv[-1]!r}" in err

    def test_zero_trace_counts_are_accepted(self):
        args = build_parser().parse_args(
            ["trace", "t.jsonl", "--top", "0", "--depth", "0"]
        )
        assert (args.top, args.depth) == (0, 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure1", "--records", "200"],
            ["run", str(_REPO / "examples" / "specs" / "mini.json")],
        ],
    )
    def test_unwritable_trace_path_is_one_error_line(
        self, argv, tmp_path, capsys
    ):
        path = tmp_path / "absent" / "t.jsonl"
        assert main([*argv, "--no-cache", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write trace:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags", [["--depth", "1"], ["--validate"]]
    )
    def test_trace_diff_rejects_view_only_flags(self, flags, capsys):
        # Checked before either file is read: the paths need not exist.
        assert main(["trace", "diff", "a.jsonl", "b.jsonl", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: 'repro trace diff' does not take {flags[0]}\n"
        )
        assert captured.out == ""


def test_closed_stdout_exits_quietly(tmp_path):
    # 2000 root spans render to about 200 kB, more than a pipe holds, so
    # the CLI is still writing when the reader closes after one line.
    path = tmp_path / "big.jsonl"
    records = [{"kind": "header", "schema": "repro-trace/v2",
                "created_unix": 5.0}]
    records += [
        {"kind": "span", "id": i, "parent": None, "name": f"job.{i}",
         "start_unix": 10.0 + i, "duration": 1.0, "attrs": {}}
        for i in range(2000)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "trace", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(_REPO / "src")},
    )
    assert process.stdout.readline().startswith(b"trace repro-trace/v2")
    process.stdout.close()
    stderr = process.stderr.read().decode()
    assert process.wait(timeout=60) == 1
    assert stderr == "", stderr  # no Traceback, no "Exception ignored"
