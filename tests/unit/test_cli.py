"""Unit tests for the repro CLI."""

import importlib

import pytest

from repro.cli import build_parser, main


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

    def test_watch_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["watch", "t.jsonl"])
        assert exc.value.code == 2
        assert "invalid choice: 'watch'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "watch" not in capsys.readouterr().out

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
