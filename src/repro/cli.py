"""Command-line interface: run experiment specs and regenerate the paper.

Usage (after ``pip install -e .``)::

    repro run my_sweep.json           # execute a JSON ExperimentSpec
    repro run spec.json --jobs 4      # parallel across 4 worker processes
    repro run spec.json --json        # structured ExperimentResult JSON
    repro run spec.json --trace t.json  # record spans + run manifest
    repro run spec.json --metrics m.json  # live metrics ring + .prom text
    repro trace t.json                # render a recorded trace document
    repro trace diff a.json b.json    # span-aligned cross-run deltas
    repro metrics m.json              # inspect a metrics ring file
    repro watch m.json                # live dashboard tailing the ring
    repro watch m.json --once         # one deterministic frame (CI logs)
    repro bench history results/*.json  # per-case bench timelines
    repro check src/ --fix-hints      # determinism/parallel-safety lints
    repro check --list-rules          # the registered rule catalog
    repro list schemes                # registered randomization schemes
    repro list attacks                # registered reconstruction attacks
    repro list datasets               # registered dataset generators
    repro figure1                     # built-in: Figure 1 at default scale
    repro figure4 --trials 3          # average 3 runs per sweep point
    repro figure2 --plot              # add an ASCII line chart
    repro theorem52                   # Theorem 5.2 numeric check
    repro ablation-selection          # DESIGN.md ablations A2-A6
    python -m repro figure2           # module form

Every experiment — a user spec or a built-in — executes through
:mod:`repro.api` and :mod:`repro.engine`.  ``--jobs N`` runs the sweep
on N worker processes (``0`` = autodetect); results are bit-identical
for any worker count.  Completed jobs are cached on disk
(``--cache-dir``, default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) so
rerunning a sweep skips finished work; ``--no-cache`` disables that.

Output is the same text table the benchmark harness prints (plus an
optional terminal plot), or the full structured result with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.api.builtin import builtin_spec
from repro.api.config import DEFAULT_NOISE_STD, DEFAULT_RECORDS, SweepConfig
from repro.api.runner import build_engine, run_spec
from repro.api.spec import ExperimentSpec
from repro.engine import (
    Engine,
    ProgressReporter,
    ThroughputReporter,
    TraceReporter,
)
from repro.exceptions import ReproError
from repro.experiments.ascii_plot import plot_series
from repro.experiments.reporting import render_series
from repro.registry import ATTACKS, DATASETS, SCHEMES
from repro.telemetry import (
    Recorder,
    build_manifest,
    diff_traces,
    render_diff,
    render_openmetrics,
    render_trace,
    run_health,
    trace,
    validate_metrics,
    validate_trace,
    watch_loop,
    write_trace,
)

__all__ = ["main", "build_parser"]

_FIGURES = {
    "figure1": "RMSE vs number of attributes (Experiment 1)",
    "figure2": "RMSE vs number of principal components (Experiment 2)",
    "figure3": "RMSE vs non-principal eigenvalue (Experiment 3)",
    "figure4": "RMSE vs noise correlation dissimilarity (Experiment 4)",
}

_ABLATIONS = {
    "ablation-selection": "A2: PCA-DR component-selection rules",
    "ablation-covariance": "A3: Theorem-5.1 estimate vs oracle covariance",
    "ablation-samplesize": "A4: attack accuracy vs number of records",
    "ablation-utility": "A5: naive-Bayes utility of disguised data",
    "ablation-marginals": "A6: non-normal marginals (Gaussian copula)",
}

_REGISTRIES = {
    "schemes": SCHEMES,
    "attacks": ATTACKS,
    "datasets": DATASETS,
}


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = autodetect), got {value}"
        )
    return value


def _add_engine_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=_worker_count,
        default=1,
        help=(
            "worker processes (1 = in-process serial, 0 = autodetect "
            "CPU count); results are identical for any value"
        ),
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    sub.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "result-cache directory (default $REPRO_CACHE_DIR or "
            "~/.cache/repro)"
        ),
    )
    sub.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record the run as a repro-trace/v1 JSON document (spans, "
            "counters, run manifest) at PATH; view it with "
            "'repro trace PATH'"
        ),
    )
    _add_metrics_arguments(sub)


def _add_metrics_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help=(
            "export live run metrics while executing: a repro-metrics/v1 "
            "JSON ring file at PATH plus an OpenMetrics text sibling "
            "(PATH with a .prom suffix), refreshed every "
            "--metrics-interval seconds; view with 'repro metrics PATH'"
        ),
    )
    sub.add_argument(
        "--metrics-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between metrics snapshots (default 1.0)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the figures of 'Deriving Private Information from "
            "Randomized Data' (Huang, Du, Chen; SIGMOD 2005) and run "
            "declarative experiment specs."
        ),
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)

    sub = subparsers.add_parser(
        "run", help="execute an ExperimentSpec JSON file"
    )
    sub.add_argument("spec", help="path to the spec (*.json)")
    sub.add_argument(
        "--plot",
        action="store_true",
        help="also draw the series as an ASCII line chart",
    )
    sub.add_argument(
        "--json",
        action="store_true",
        help="print the structured ExperimentResult as JSON",
    )
    _add_engine_arguments(sub)

    sub = subparsers.add_parser("list", help="list registered components")
    sub.add_argument(
        "registry",
        choices=sorted(_REGISTRIES),
        help="which component family to list",
    )

    for name, help_text in _FIGURES.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--records",
            type=int,
            default=DEFAULT_RECORDS,
            help=f"rows per generated dataset (default {DEFAULT_RECORDS})",
        )
        sub.add_argument(
            "--noise-std",
            type=float,
            default=DEFAULT_NOISE_STD,
            help=f"noise standard deviation (default {DEFAULT_NOISE_STD})",
        )
        sub.add_argument(
            "--trials",
            type=int,
            default=1,
            help="independent repetitions averaged per sweep point",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=2005,
            help="root random seed (default 2005)",
        )
        sub.add_argument(
            "--plot",
            action="store_true",
            help="also draw the series as an ASCII line chart",
        )
        _add_engine_arguments(sub)
    for name, help_text in _ABLATIONS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--plot", action="store_true",
                         help="also draw an ASCII line chart")
        _add_engine_arguments(sub)
    sub = subparsers.add_parser(
        "theorem52", help="verify Theorem 5.2 numerically"
    )
    _add_engine_arguments(sub)

    sub = subparsers.add_parser(
        "bench",
        help="time the numerical routines no figure runs",
        description=(
            "Run the registered micro-benchmarks (numerical routines "
            "no figure runs, and the tracing overhead; perfbench/ "
            "times the figure pipelines), print a timing table, "
            "optionally emit a machine-readable BENCH_*.json, and "
            "compare against a baseline payload."
        ),
    )
    sub.add_argument(
        "--json",
        nargs="?",
        const="BENCH_RESULTS.json",
        default=None,
        metavar="PATH",
        help=(
            "write the machine-readable payload to PATH "
            "(default BENCH_RESULTS.json when the flag is given bare)"
        ),
    )
    sub.add_argument(
        "--filter",
        default=None,
        metavar="TOKEN",
        help=(
            "only run benchmarks whose name contains TOKEN or whose "
            "tags include it (e.g. 'smoke', 'large', 'em_recon')"
        ),
    )
    sub.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="timed repetitions per benchmark after one warmup (default 3)",
    )
    sub.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            "baseline BENCH_*.json to compare against (default: the "
            "committed benchmarks/baselines/BENCH_BASELINE.json when "
            "run inside the repository)"
        ),
    )
    sub.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the baseline comparison entirely",
    )
    sub.add_argument(
        "--max-regression",
        type=float,
        default=1.5,
        metavar="RATIO",
        help=(
            "flag benchmarks running RATIO times slower than the "
            "baseline (default 1.5)"
        ),
    )
    sub.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any benchmark exceeds --max-regression",
    )
    sub.add_argument(
        "--list",
        action="store_true",
        help="list the registered benchmarks (with --filter) and exit",
    )
    sub.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record per-case bench.case spans to a repro-trace/v1 "
            "document at PATH"
        ),
    )
    _add_metrics_arguments(sub)
    sub.add_argument(
        "action",
        nargs="*",
        default=[],
        metavar="history RESULTS...",
        help=(
            "optional subcommand: 'history RESULTS...' folds any number "
            "of BENCH_*.json payloads into per-case timelines with "
            "regression flagging against the baseline"
        ),
    )

    sub = subparsers.add_parser(
        "check",
        help="static determinism & parallel-safety analysis",
        description=(
            "Run the AST-based rule catalog (seeded-RNG flow, pickle-"
            "safe tasks, array-aware dataclass equality, clock-free "
            "kernels, lock hygiene, registry spec signatures) over "
            "source trees.  Any unsuppressed finding fails the check; "
            "silence a deliberate violation with an inline "
            "'# repro: ignore[rule-key] justification' comment."
        ),
    )
    sub.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to scan (default: src)",
    )
    sub.add_argument(
        "--rules",
        default=None,
        metavar="KEYS",
        help=(
            "comma-separated rule keys to run (default: every "
            "registered rule; see --list-rules)"
        ),
    )
    sub.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "write the repro-check/v1 JSON report to PATH "
            "(stdout when the flag is given bare)"
        ),
    )
    sub.add_argument(
        "--fix-hints",
        action="store_true",
        help="show each fired rule's suggested fix under its findings",
    )
    sub.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules (key, severity, scope) and exit",
    )

    sub = subparsers.add_parser(
        "trace",
        help="inspect or diff recorded repro-trace/v1 documents",
        description=(
            "Render the span tree, self-time aggregate, slowest-job "
            "chart, and manifest summary of a trace recorded with "
            "'repro run --trace' or 'repro bench --trace'.  "
            "'repro trace diff A B' instead aligns two traces span by "
            "span and reports per-span duration deltas (self-time "
            "attributed) plus the manifest changes between the runs."
        ),
    )
    sub.add_argument(
        "file",
        nargs="+",
        help=(
            "path to the trace JSON document, or 'diff' followed by "
            "two trace paths to compare"
        ),
    )
    sub.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help=(
            "number of slowest jobs to chart, or of span deltas to "
            "list in diff mode (default 10)"
        ),
    )
    sub.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="D",
        help="limit the span tree to D levels (default: unlimited)",
    )
    sub.add_argument(
        "--validate",
        action="store_true",
        help="check the document against the schema and exit (no render)",
    )

    sub = subparsers.add_parser(
        "metrics",
        help="inspect a repro-metrics/v1 ring file",
        description=(
            "Summarize a metrics ring file written by --metrics: "
            "snapshot count and span, the latest engine progress, and "
            "the latest snapshot's counters and gauges."
        ),
    )
    sub.add_argument("file", help="path to the metrics JSON document")
    sub.add_argument(
        "--validate",
        action="store_true",
        help="check the document against the schema and exit (no render)",
    )
    sub.add_argument(
        "--prom",
        action="store_true",
        help="print the latest snapshot as OpenMetrics text instead",
    )

    sub = subparsers.add_parser(
        "watch",
        help="live terminal dashboard over a metrics ring file",
        description=(
            "Tail the repro-metrics/v1 ring a running sweep exports "
            "with --metrics and redraw a dashboard each interval: "
            "progress bar with rate and ETA, parent/worker RSS, and "
            "the per-kernel convergence state fed by the kernel.* "
            "heartbeat gauges.  Works equally on a finished ring "
            "(the final state renders, marked stale); --once prints "
            "a single frame and exits, for CI logs."
        ),
    )
    sub.add_argument("file", help="path to the metrics JSON ring file")
    sub.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between redraws (default 1.0)",
    )
    sub.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit instead of looping",
    )
    return parser


def _engine_from_args(args) -> Engine:
    """Build the execution engine the selected flags describe."""
    if getattr(args, "no_cache", False):
        cache = False
    else:
        cache_dir = getattr(args, "cache_dir", None)
        cache = True if cache_dir is None else cache_dir
    if sys.stderr.isatty():
        progress = ThroughputReporter()
    else:
        progress = ProgressReporter()
    return build_engine(
        jobs=getattr(args, "jobs", 1), cache=cache, progress=progress
    )


def _execute_spec(spec, args):
    """Run a spec through the engine, honoring ``--trace`` when given.

    With ``--trace PATH`` the whole run is recorded — engine, pipeline,
    and kernel spans plus cache counters — and written as a validated
    ``repro-trace/v1`` document whose manifest joins the spec's seed
    lineage with the per-job timings collected by a
    :class:`~repro.engine.progress.TraceReporter`.
    """
    engine = _engine_from_args(args)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is None and metrics_path is None:
        return run_spec(spec, engine=engine)
    recorder = Recorder()
    reporter = TraceReporter(inner=engine.progress)
    engine.progress = reporter
    # One recorder feeds everything: the trace document, the live
    # metrics exporter, and the resource sampler's gauges.
    with trace.recording(recorder):
        with run_health(
            recorder,
            metrics_path=metrics_path,
            interval=getattr(args, "metrics_interval", 1.0),
        ):
            result = run_spec(spec, engine=engine)
    if metrics_path is not None:
        print(f"wrote metrics {metrics_path}", file=sys.stderr)
    if trace_path is not None:
        manifest = build_manifest(
            spec=spec,
            rows=reporter.rows,
            extra={"command": "run", "elapsed": reporter.elapsed},
        )
        written = write_trace(
            recorder.to_document(manifest=manifest), trace_path
        )
        print(f"wrote trace {written}", file=sys.stderr)
    return result


def _list_components(args) -> int:
    registry = _REGISTRIES[args.registry]
    for key in registry.names():
        print(f"{key:<16} {registry.get(key).__name__}")
    return 0


def _run_spec_file(args) -> int:
    try:
        spec = ExperimentSpec.from_file(args.spec)
    except FileNotFoundError:
        print(f"error: spec file not found: {args.spec}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return 2
    result = _execute_spec(spec, args)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    series = result.to_series()
    print(render_series(series))
    if args.plot:
        print()
        print(plot_series(series))
    return 0


def _run_check(args) -> int:
    """Run the static-analysis catalog (the ``check`` subcommand)."""
    # Imported lazily: the analysis rules are pure stdlib-AST code the
    # experiment subcommands never need.
    from repro.analysis import (
        render_report,
        render_rules,
        report_payload,
        run_check,
    )

    if args.list_rules:
        print(render_rules())
        return 0
    rules = None
    if args.rules is not None:
        rules = [key.strip() for key in args.rules.split(",") if key.strip()]
        if not rules:
            print("error: --rules got an empty list", file=sys.stderr)
            return 2
    paths = args.paths or ["src"]
    try:
        report = run_check(paths, rules=rules)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        text = json.dumps(report_payload(report), indent=2)
        if args.json == "-":
            print(text)
        else:
            pathlib.Path(args.json).write_text(text + "\n")
            print(f"wrote report {args.json}", file=sys.stderr)
            print(render_report(report, fix_hints=args.fix_hints))
    else:
        print(render_report(report, fix_hints=args.fix_hints))
    return 0 if report.ok else 1


def _load_trace(path: str) -> tuple[dict | None, int]:
    """Read + validate one trace document; ``(payload, exit_code)``.

    Forward-compatibility findings (a document or nested convergence
    payload declaring a schema version this build does not know) are
    printed as ``warning:`` lines and do not fail the load.
    """
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except FileNotFoundError:
        print(f"error: trace file not found: {path}", file=sys.stderr)
        return None, 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return None, 2
    warnings: list[str] = []
    try:
        validate_trace(payload, warnings=warnings)
    except ReproError as exc:
        print(f"error: invalid trace document: {exc}", file=sys.stderr)
        return None, 1
    for warning in warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return payload, 0


def _view_trace(args) -> int:
    files = args.file
    if files[0] == "diff":
        if len(files) != 3:
            print(
                "error: 'repro trace diff' takes exactly two trace files",
                file=sys.stderr,
            )
            return 2
        payload_a, code = _load_trace(files[1])
        if payload_a is None:
            return code
        payload_b, code = _load_trace(files[2])
        if payload_b is None:
            return code
        print(render_diff(diff_traces(payload_a, payload_b), top=args.top))
        return 0
    if len(files) != 1:
        print(
            "error: 'repro trace' views one file (or 'diff A B')",
            file=sys.stderr,
        )
        return 2
    payload, code = _load_trace(files[0])
    if payload is None:
        return code
    if args.validate:
        schema = payload.get("schema", "repro-trace/v1")
        print(f"{files[0]}: valid {schema} document")
        return 0
    print(render_trace(payload, top=args.top, max_depth=args.depth))
    return 0


def _view_metrics(args) -> int:
    try:
        payload = json.loads(pathlib.Path(args.file).read_text())
    except FileNotFoundError:
        print(f"error: metrics file not found: {args.file}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read metrics: {exc}", file=sys.stderr)
        return 2
    warnings: list[str] = []
    try:
        validate_metrics(payload, warnings=warnings)
    except ReproError as exc:
        print(f"error: invalid metrics document: {exc}", file=sys.stderr)
        return 1
    for warning in warnings:
        print(f"warning: {args.file}: {warning}", file=sys.stderr)
    if args.validate:
        schema = payload.get("schema", "repro-metrics/v1")
        print(f"{args.file}: valid {schema} document")
        return 0
    snapshots = payload.get("snapshots") or []
    if not snapshots:
        print("metrics ring is empty (run ended before the first tick)")
        return 0
    latest = snapshots[-1]
    if args.prom:
        print(render_openmetrics(latest), end="")
        return 0
    first_ts = float(snapshots[0]["ts_unix"])
    last_ts = float(latest["ts_unix"])
    print(
        f"metrics {payload.get('schema', '?')}: {len(snapshots)} snapshot(s) "
        f"over {last_ts - first_ts:.1f}s "
        f"(interval {payload.get('interval_s', 0):g}s, "
        f"ring {payload.get('ring', '?')})"
    )
    progress = latest.get("progress")
    if progress:
        parts = [
            f"{int(progress.get('completed', 0))}/"
            f"{int(progress.get('total', 0))} jobs",
            f"{int(progress.get('cached', 0))} cached",
        ]
        if "rate_jobs_per_s" in progress:
            parts.append(f"{progress['rate_jobs_per_s']:.2f} jobs/s")
        if "eta_s" in progress:
            parts.append(f"eta {progress['eta_s']:.1f}s")
        print("progress: " + "  ".join(parts))
    for section in ("counters", "gauges"):
        metrics = latest.get(section) or {}
        if metrics:
            print(f"{section}:")
            for name, value in sorted(metrics.items()):
                print(f"  {name:<40} {value:g}")
    return 0


def _run_watch(args) -> int:
    """Tail a metrics ring file (the ``watch`` subcommand)."""
    try:
        return watch_loop(
            args.file,
            sys.stdout,
            interval=args.interval,
            once=args.once,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "run":
        return _run_spec_file(args)
    if args.experiment == "list":
        return _list_components(args)
    if args.experiment == "check":
        return _run_check(args)
    if args.experiment == "trace":
        return _view_trace(args)
    if args.experiment == "metrics":
        return _view_metrics(args)
    if args.experiment == "watch":
        return _run_watch(args)
    if args.experiment == "bench":
        # Imported lazily: the benchmark definitions import data
        # generators and attacks the other subcommands never need.
        from repro.bench.runner import main_bench

        return main_bench(args)

    if args.experiment in _FIGURES:
        config = SweepConfig(
            n_records=args.records,
            noise_std=args.noise_std,
            n_trials=args.trials,
            seed=args.seed,
        )
        spec = builtin_spec(args.experiment, config)
    else:
        spec = builtin_spec(args.experiment)
    series = _execute_spec(spec, args).to_series()
    print(render_series(series))
    if getattr(args, "plot", False):
        print()
        print(plot_series(series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
