"""Benchmark runner: timing harness, JSON payload, baseline comparison.

The runner is what ``repro bench`` drives.  Protocol per case: call the
registered setup factory (untimed), run the workload once as warmup,
then ``repeat`` timed runs with :func:`time.perf_counter`.  The *minimum*
is the headline number — it is the least noise-contaminated statistic
for a deterministic workload — and every raw timing is kept in the
payload so later analysis can second-guess that choice.

Payload schema (``schema`` field = ``"repro-bench/v1"``)::

    {
      "schema": "repro-bench/v1",
      "created_unix": 1753800000.0,
      "python": "3.11.7", "numpy": "1.26.4", "platform": "Linux-...",
      "filter": "smoke", "repeat": 3,
      "benchmarks": {
        "hotpath.em_recon.large": {
          "group": "hotpath", "tags": ["large"],
          "params": {"n_records": 100000, "n_bins": 64},
          "seconds": [1.91, 1.90, 1.93],
          "seconds_min": 1.90, "seconds_mean": 1.913,
          "resource": {"rss_bytes": 123456789, "cpu_seconds": 5.71}
        }, ...
      }
    }

Baseline comparisons read the same schema, so any previous ``BENCH_*.
json`` — including the committed ``benchmarks/baselines/BENCH_BASELINE.
json`` — can serve as the reference.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

from repro.bench.registry import BenchmarkCase, iter_benchmarks
from repro.exceptions import ValidationError
from repro.telemetry import build_manifest, trace, traced_run
from repro.telemetry.sampler import read_process, sampling_supported

__all__ = [
    "SCHEMA",
    "time_case",
    "run_benchmarks",
    "write_payload",
    "load_payload",
    "compare_to_baseline",
    "render_report",
    "render_comparison",
    "default_baseline_path",
]

SCHEMA = "repro-bench/v1"

#: Regression threshold for :func:`compare_to_baseline`: a benchmark is
#: flagged when it runs this many times slower than the baseline.
DEFAULT_REGRESSION_RATIO = 1.5

#: Noise threshold: a case whose timings scatter more than this
#: (stddev / mean) is too noisy for a hard pass/fail verdict.
DEFAULT_NOISE_REL_STDDEV = 0.10


def time_case(case: BenchmarkCase, *, repeat: int = 3) -> dict:
    """Time one benchmark case and return its payload entry.

    Parameters
    ----------
    case:
        The registered case to run.
    repeat:
        Timed repetitions after one untimed warmup run; the case's own
        ``repeat`` attribute, when set, wins.

    Returns
    -------
    dict
        Payload entry with ``seconds`` (raw timings), ``seconds_min``,
        and ``seconds_mean``.
    """
    runs = case.repeat if case.repeat is not None else repeat
    if runs < 1:
        raise ValidationError(f"repeat must be >= 1, got {runs}")
    workload = case.setup()
    # Per-case resource attribution: /proc readings before and after the
    # timed block give this case's CPU burn and the RSS it left behind
    # (rss_max is the process peak so far — the case that first pushes
    # it up is the one that owns the spike).
    resources_before = (
        read_process(os.getpid()) if sampling_supported() else None
    )
    # One bench.case span covers warmup plus every timed run, so a
    # traced bench (``repro bench --trace``) shows each case's full
    # wall-clock alongside the spans its workload emits internally.
    with trace.span("bench.case", case=case.name, runs=runs) as span:
        workload()  # warmup: first-call costs (imports, allocator) are not the routine
        timings = []
        for _ in range(runs):
            started = time.perf_counter()
            workload()
            timings.append(time.perf_counter() - started)
        span.set(seconds_min=min(timings))
        if resources_before is not None:
            after = read_process(os.getpid())
            if after is not None:
                span.set(rss_bytes=after["rss_bytes"])
    entry = {
        "group": case.group,
        "tags": list(case.tags),
        "params": case.params,
        "seconds": timings,
        "seconds_min": min(timings),
        "seconds_mean": sum(timings) / len(timings),
    }
    if resources_before is not None and after is not None:
        entry["resource"] = {
            "rss_bytes": after["rss_bytes"],
            "cpu_seconds": round(
                after["cpu_seconds"] - resources_before["cpu_seconds"], 4
            ),
        }
    return entry


def run_benchmarks(
    *,
    filter_token: str | None = None,
    repeat: int = 3,
    progress=None,
) -> dict:
    """Run every matching benchmark and return the full payload.

    Parameters
    ----------
    filter_token:
        Substring-of-name or exact-tag filter (``None`` runs all).
    repeat:
        Default timed repetitions per case.
    progress:
        Optional callable invoked as ``progress(case, entry)`` after
        each case finishes — the CLI uses it for incremental output.
    """
    cases = iter_benchmarks(filter_token)
    if not cases:
        raise ValidationError(
            f"no benchmarks match filter {filter_token!r}; "
            "run 'repro bench --list' to see the registered cases"
        )
    benchmarks: dict[str, dict] = {}
    for case in cases:
        entry = time_case(case, repeat=repeat)
        benchmarks[case.name] = entry
        if progress is not None:
            progress(case, entry)
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "filter": filter_token,
        "repeat": repeat,
        "benchmarks": benchmarks,
    }


def write_payload(payload: dict, json_path) -> pathlib.Path:
    """Write the payload to ``json_path`` and return that path."""
    path = pathlib.Path(json_path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_payload(json_path) -> dict:
    """Load and minimally validate a ``BENCH_*.json`` payload."""
    path = pathlib.Path(json_path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise ValidationError(
            f"{path} is not a repro-bench payload (no 'benchmarks' key)"
        )
    return payload


def default_baseline_path() -> pathlib.Path | None:
    """The committed baseline, when running inside the repository.

    Walks from the current directory upward, so ``repro bench`` run from
    a repo subdirectory still compares against
    ``benchmarks/baselines/BENCH_BASELINE.json``.  Returns ``None``
    outside a checkout (installed-package usage).
    """
    here = pathlib.Path.cwd().resolve()
    for directory in (here, *here.parents):
        candidate = directory / "benchmarks" / "baselines" / "BENCH_BASELINE.json"
        if candidate.is_file():
            return candidate
    return None


def _relative_stddev(timings: list) -> float:
    """Population stddev of the timings, relative to their mean."""
    if len(timings) < 2:
        return 0.0
    mean = sum(timings) / len(timings)
    if mean <= 0.0:
        return 0.0
    variance = sum((t - mean) ** 2 for t in timings) / len(timings)
    return (variance ** 0.5) / mean


def compare_to_baseline(
    payload: dict,
    baseline: dict,
    *,
    regression_ratio: float = DEFAULT_REGRESSION_RATIO,
    noise_rel_stddev: float = DEFAULT_NOISE_REL_STDDEV,
) -> dict:
    """Compare a run against a baseline payload, benchmark by benchmark.

    Parameters
    ----------
    payload, baseline:
        Two ``repro-bench/v1`` payloads; only benchmarks present in both
        are compared (on ``seconds_min``).
    regression_ratio:
        ``current / baseline`` above this flags a regression.
    noise_rel_stddev:
        Relative stddev of the current run's raw timings above which a
        case is too noisy to trust: an over-threshold ratio there lands
        in ``unreliable`` instead of ``regressions``, so one loaded CI
        machine cannot hard-fail the gate.

    Returns
    -------
    dict
        ``{"rows", "regressions", "unreliable", "missing"}`` where each
        row has ``name``, ``baseline_s``, ``current_s``, ``ratio``
        (<1 = faster than baseline), ``speedup`` (baseline/current,
        >1 = faster), ``rel_stddev``, and ``noisy``.
    """
    rows = []
    regressions = []
    unreliable = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name, entry in payload["benchmarks"].items():
        base = base_benchmarks.get(name)
        if base is None:
            continue
        baseline_s = float(base["seconds_min"])
        current_s = float(entry["seconds_min"])
        ratio = current_s / baseline_s if baseline_s > 0.0 else float("inf")
        rel_stddev = _relative_stddev(
            [float(t) for t in entry.get("seconds", [])]
        )
        noisy = rel_stddev > noise_rel_stddev
        rows.append(
            {
                "name": name,
                "baseline_s": baseline_s,
                "current_s": current_s,
                "ratio": ratio,
                "speedup": 1.0 / ratio if ratio > 0.0 else float("inf"),
                "rel_stddev": rel_stddev,
                "noisy": noisy,
            }
        )
        if ratio > regression_ratio:
            if noisy:
                unreliable.append(name)
            else:
                regressions.append(name)
    missing = sorted(set(payload["benchmarks"]) - set(base_benchmarks))
    return {
        "rows": rows,
        "regressions": regressions,
        "unreliable": unreliable,
        "missing": missing,
    }


def render_report(payload: dict) -> str:
    """Human-readable table of one run's timings."""
    lines = [f"{'benchmark':<42} {'min (s)':>10} {'mean (s)':>10}"]
    lines.append("-" * 64)
    for name, entry in payload["benchmarks"].items():
        lines.append(
            f"{name:<42} {entry['seconds_min']:>10.4f} "
            f"{entry['seconds_mean']:>10.4f}"
        )
    return "\n".join(lines)


def render_comparison(comparison: dict) -> str:
    """Human-readable table of a baseline comparison."""
    rows = comparison["rows"]
    if not rows:
        return "no overlapping benchmarks between run and baseline"
    lines = [
        f"{'benchmark':<42} {'base (s)':>10} {'now (s)':>10} "
        f"{'speedup':>9} {'stddev':>7}"
    ]
    lines.append("-" * 82)
    for row in rows:
        marker = ""
        if row["name"] in comparison["regressions"]:
            marker = "  << REGRESSION"
        elif row["name"] in comparison.get("unreliable", []):
            marker = "  ?? slow but noisy (unreliable)"
        elif row.get("noisy"):
            marker = "  ~ noisy"
        lines.append(
            f"{row['name']:<42} {row['baseline_s']:>10.4f} "
            f"{row['current_s']:>10.4f} {row['speedup']:>8.2f}x "
            f"{row.get('rel_stddev', 0.0):>6.1%}{marker}"
        )
    if comparison["missing"]:
        lines.append(
            f"(not in baseline: {', '.join(comparison['missing'])})"
        )
    return "\n".join(lines)


def _main_history(files: list, args) -> int:
    """The ``repro bench history RESULTS...`` sub-mode."""
    from repro.telemetry import build_history, render_history

    if not files:
        print(
            "error: 'repro bench history' needs at least one "
            "BENCH_*.json results file",
            file=sys.stderr,
        )
        return 2
    payloads = []
    for path in files:
        try:
            payloads.append(load_payload(path))
        except (OSError, json.JSONDecodeError, ValidationError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        baseline_path = default_baseline_path()
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = load_payload(baseline_path)
        except (OSError, json.JSONDecodeError, ValidationError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
    history = build_history(
        payloads, baseline=baseline, regression_ratio=args.max_regression
    )
    print(render_history(history))
    if args.json is not None:
        path = pathlib.Path(args.json)
        path.write_text(
            json.dumps(history, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path}", file=sys.stderr)
    if history["regressions"] and args.fail_on_regression:
        print(
            f"error: {len(history['regressions'])} case(s) regressed "
            f"beyond {args.max_regression:.2f}x baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def main_bench(args) -> int:
    """Entry point for the ``repro bench`` subcommand."""
    import repro.bench.hotpaths  # noqa: F401  (registration side effects)
    import repro.bench.telemetry  # noqa: F401

    action = list(getattr(args, "action", []) or [])
    if action:
        if action[0] != "history":
            print(
                f"error: unknown bench subcommand {action[0]!r} "
                "(expected 'history RESULTS...')",
                file=sys.stderr,
            )
            return 2
        return _main_history(action[1:], args)

    if args.list:
        cases = iter_benchmarks(args.filter)
        if not cases:
            # Same contract as run mode: a filter matching nothing is an
            # error, so typos surface in --list previews too.
            print(
                f"error: no benchmarks match filter {args.filter!r}",
                file=sys.stderr,
            )
            return 2
        for case in cases:
            tags = ",".join(case.tags)
            print(f"{case.name:<42} [{tags}] {case.params}")
        return 0

    # The trace manifest's timing table reuses the headline numbers, so
    # a trace file is self-contained even without the BENCH_*.json.
    rows: list[dict] = []

    def progress(case, entry):
        rows.append(
            {"key": case.name, "duration": entry["seconds_min"], "cached": False}
        )
        print(
            f"{case.name:<42} {entry['seconds_min']:.4f}s "
            f"(mean {entry['seconds_mean']:.4f}s over "
            f"{len(entry['seconds'])} runs)",
            file=sys.stderr,
        )

    trace_path = getattr(args, "trace", None)
    tracing = (
        contextlib.nullcontext()
        if trace_path is None
        else traced_run(
            trace_path,
            manifest=lambda: build_manifest(
                rows=rows, extra={"command": "bench", "filter": args.filter}
            ),
        )
    )
    try:
        with tracing:
            payload = run_benchmarks(
                filter_token=args.filter, repeat=args.repeat, progress=progress
            )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(render_report(payload))
    if trace_path is not None:
        print(f"wrote trace {trace_path}", file=sys.stderr)

    if args.json is not None:
        print(f"wrote {write_payload(payload, args.json)}", file=sys.stderr)

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        baseline_path = default_baseline_path()
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = load_payload(baseline_path)
        except (OSError, json.JSONDecodeError, ValidationError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        comparison = compare_to_baseline(
            payload, baseline, regression_ratio=args.max_regression
        )
        print()
        print(f"vs baseline {baseline_path}:")
        print(render_comparison(comparison))
        if comparison["regressions"] and args.fail_on_regression:
            print(
                f"error: {len(comparison['regressions'])} benchmark(s) "
                f"regressed beyond {args.max_regression:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0
