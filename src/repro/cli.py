"""Command-line interface: run experiment specs and regenerate the paper.

Usage (after ``pip install -e .``)::

    repro run my_sweep.json           # execute a JSON ExperimentSpec
    repro run spec.json --jobs 4      # parallel across 4 worker processes
    repro run spec.json --json        # structured ExperimentResult JSON
    repro run spec.json --trace t.jsonl  # stream spans, metrics, manifest
    repro trace t.jsonl               # render a recorded trace stream
    repro trace t.jsonl --validate    # check it against repro-trace/v2
    repro trace diff a.jsonl b.jsonl  # span-aligned cross-run deltas
    repro list schemes                # registered randomization schemes
    repro list attacks                # registered reconstruction attacks
    repro list datasets               # registered dataset generators
    repro figure1                     # built-in: Figure 1 at default scale
    repro figure4 --trials 3          # average 3 runs per sweep point
    repro figure2 --plot              # add an ASCII line chart
    repro theorem52                   # Theorem 5.2 numeric check
    repro ablation-selection          # ablations A2-A6 (docs/paper_map.md)
    python -m repro figure2           # module form

Every experiment — a user spec or a built-in — executes through
:mod:`repro.api` and :mod:`repro.engine`.  ``--jobs N`` runs the sweep
on N worker processes (``0`` = autodetect); results are bit-identical
for any worker count.  Completed jobs are cached on disk
(``--cache-dir``, default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) so
rerunning a sweep skips finished work; ``--no-cache`` disables that.

Output is an aligned text table per series — one row per sweep point,
one column per attack (:func:`repro.experiments.reporting.render_series`)
— plus an optional terminal plot, or the full structured result with
``--json``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
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
    build_manifest,
    diff_traces,
    read_trace,
    render_diff,
    render_trace,
    traced_run,
    validate_trace,
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


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_engine_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=_non_negative,
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
            "stream the run to PATH as it goes, as repro-trace/v2 JSONL "
            "(spans, counters and gauges, peak RSS and CPU, run "
            "manifest); view it with 'repro trace PATH'"
        ),
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
        "trace",
        help="inspect or diff recorded repro-trace/v2 streams",
        description=(
            "Render the span tree, self-time aggregate, slowest-job "
            "chart, and manifest summary of a trace recorded with "
            "any experiment subcommand's --trace (e.g. 'repro run "
            "--trace').  "
            "'repro trace diff A B' instead aligns two traces span by "
            "span and reports per-span duration deltas (self-time "
            "attributed) plus the manifest changes between the runs."
        ),
    )
    sub.add_argument(
        "file",
        nargs="+",
        help=(
            "path to the trace stream, or 'diff' followed by two "
            "trace paths to compare"
        ),
    )
    sub.add_argument(
        "--top",
        type=_non_negative,
        default=10,
        metavar="N",
        help=(
            "number of slowest jobs to chart, or of span deltas to "
            "list in diff mode (default 10)"
        ),
    )
    sub.add_argument(
        "--depth",
        type=_non_negative,
        default=None,
        metavar="D",
        help=(
            "limit the span tree to D levels (default: unlimited; not "
            "in diff mode)"
        ),
    )
    sub.add_argument(
        "--validate",
        action="store_true",
        help=(
            "check the stream against the schema and exit (no render; "
            "not in diff mode)"
        ),
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

    With ``--trace PATH`` the whole run — engine, pipeline, and kernel
    spans, counters, gauges, peak RSS and CPU — streams to PATH
    as it goes (:func:`~repro.telemetry.stream.traced_run`), ending
    with a manifest that joins the spec's seed lineage with the
    per-job timings collected by a
    :class:`~repro.engine.progress.TraceReporter`.  A trace path that
    cannot be opened for writing prints one ``error:`` line and returns
    ``None``, before any job runs.
    """
    engine = _engine_from_args(args)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        with engine:
            return run_spec(spec, engine=engine)
    reporter = TraceReporter(inner=engine.progress)
    engine.progress = reporter
    recording = traced_run(
        trace_path,
        manifest=lambda: build_manifest(
            spec=spec,
            rows=reporter.rows,
            extra={"command": "run", "elapsed": reporter.elapsed},
        ),
    )
    with contextlib.ExitStack() as stack:
        # Only the entry is guarded: it opens PATH, and an OSError from
        # the run itself must not be reported as a trace error.
        try:
            stack.enter_context(recording)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return None
        # Closed before the recording ends, so the workers are reaped
        # when it reads the children's peak RSS and CPU.
        stack.enter_context(engine)
        result = run_spec(spec, engine=engine)
    print(f"wrote trace {trace_path}", file=sys.stderr)
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
    if result is None:
        return 2
    if args.json:
        print(result.to_json(indent=2))
        return 0
    series = result.to_series()
    print(render_series(series))
    if args.plot:
        print()
        print(plot_series(series))
    return 0


def _load_trace(path: str) -> tuple[dict | None, int]:
    """Fold + validate one trace stream; ``(payload, exit_code)``.

    Forward-compatibility findings (a stream declaring a schema version
    this build does not know) are printed as ``warning:`` lines and do not fail the load.
    """
    warnings: list[str] = []
    try:
        payload = validate_trace(read_trace(path), warnings=warnings)
    except FileNotFoundError:
        print(f"error: trace file not found: {path}", file=sys.stderr)
        return None, 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return None, 2
    except ReproError as exc:
        print(f"error: invalid trace: {exc}", file=sys.stderr)
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
        for flag, given in (
            ("--depth", args.depth is not None),
            ("--validate", args.validate),
        ):
            if given:
                print(
                    f"error: 'repro trace diff' does not take {flag}",
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
        print(f"{files[0]}: valid {payload['schema']} stream")
        return 0
    print(render_trace(payload, top=args.top, max_depth=args.depth))
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code.

    A reader that closes stdout early (``repro trace t.jsonl | head``)
    ends the run quietly with exit 1: stdout is pointed at
    ``os.devnull`` so the interpreter's last flush cannot fail again
    (the "Note on SIGPIPE" recipe of Python's :mod:`signal` docs).
    """
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        # Flush here, not at interpreter exit, so a closed pipe raises
        # inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _dispatch(args) -> int:
    if args.experiment == "run":
        return _run_spec_file(args)
    if args.experiment == "list":
        return _list_components(args)
    if args.experiment == "trace":
        return _view_trace(args)

    if args.experiment in _FIGURES:
        try:
            config = SweepConfig(
                n_records=args.records,
                noise_std=args.noise_std,
                n_trials=args.trials,
                seed=args.seed,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        spec = builtin_spec(args.experiment, config)
    else:
        spec = builtin_spec(args.experiment)
    result = _execute_spec(spec, args)
    if result is None:
        return 2
    series = result.to_series()
    print(render_series(series))
    if getattr(args, "plot", False):
        print()
        print(plot_series(series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
