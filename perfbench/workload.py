"""One workload in a fresh process: set up, warm up, time, check, report.

Run as ``python3 -m perfbench.workload --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root with ``src`` on
``PYTHONPATH`` (``perfbench/run.py`` does this).  Prints one JSON record
as its last line of standard output.

The BLAS thread count is pinned before numpy loads, so that pool
workers times BLAS threads never exceed the CPUs the process may use.
Nothing here imports numpy or ``repro`` at module level.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Any

from perfbench import check
from perfbench.hostspeed import HostSpeed
from perfbench.layers import (
    IN_JOB_LAYERS,
    LayerTimer,
    in_job_targets,
    parent_targets,
)

#: OpenBLAS threads per process.  One thread per process is the only
#: mode measured; see README.md for why the unpinned mode is left out.
BLAS_THREADS = 1

FIGURES = ("figure1", "figure2", "figure3", "figure4")


@dataclasses.dataclass(frozen=True)
class Workload:
    figures: tuple[str, ...]
    workers: int
    n_records: int
    #: Parts each figure's jobs run in, with the host's slowdown measured
    #: between them.  The host's speed can change within seconds, so a
    #: figure of several seconds is timed in parts of about one second,
    #: the length of the paper-scale figures.  A pool gets its jobs in
    #: one call, or it could not spread them over its workers.
    steps: int = 1


WORKLOADS = {
    "paper-serial": Workload(FIGURES, workers=1, n_records=2000),
    "paper-jobs2": Workload(FIGURES, workers=2, n_records=2000),
    "fig2-n20k": Workload(("figure2",), workers=1, n_records=20000, steps=4),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "data.random_orthogonal_s": "s",
    "data.random_orthogonal.calls": "count",
    "data.sample_s": "s",
    "data.sample.calls": "count",
    "data.generate_s": "s",
    "data.generate.calls": "count",
    "randomization.disguise_s": "s",
    "randomization.disguise.calls": "count",
    "reconstruction.udr_s": "s",
    "reconstruction.udr.calls": "count",
    "reconstruction.sf_s": "s",
    "reconstruction.sf.calls": "count",
    "reconstruction.pca-dr_s": "s",
    "reconstruction.pca-dr.calls": "count",
    "reconstruction.be-dr_s": "s",
    "reconstruction.be-dr.calls": "count",
    "metrics.score_s": "s",
    "metrics.score.calls": "count",
    "engine.jobs": "count",
    "engine.job_compute_s": "s",
    "engine.overhead_s": "s",
    "engine.parallel_efficiency": "ratio",
    "engine.cache.puts": "count",
    "engine.cache.put_s": "s",
    "api.compile_s": "s",
    "api.aggregate_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Layers measured but left out of the final metrics because some
#: workloads never reach them (figure2 designs no noise), and a time
#: that reads 0 on every run is no measurement.  They are printed in
#: the detail record.
DETAIL_ONLY = {"core.defense.design_s": "s", "core.defense.design.calls": "count"}


def pin_blas_threads() -> None:
    """Pin OpenBLAS/OpenMP threads; must run before numpy is imported."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)


def _openblas_threads() -> int | None:
    """Live thread count of numpy's bundled OpenBLAS, read through ctypes."""
    import ctypes

    import numpy

    libs = pathlib.Path(numpy.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        getter = getattr(
            ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None
        )
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def environment(workers: int) -> dict[str, Any]:
    """The conditions that decide the timings."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _openblas_threads()
    cpus = len(os.sched_getaffinity(0))
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "cpus": cpus,
        "nproc": os.cpu_count(),
        "workers": workers,
        "within_cpu_budget": threads is not None and workers * threads <= cpus,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


class Runner:
    """The specs and engine of one workload, and how to run one repeat.

    Every repeat runs each figure on a fresh, empty ``ResultCache``
    (what ``repro figure1`` .. ``figure4`` do), so no result is served
    from cache and every job's payload is written once.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        work_dir: pathlib.Path,
        n_records: int | None = None,
    ) -> None:
        start = time.perf_counter()
        from repro.api import SweepConfig, build_engine, builtin_spec

        config = SweepConfig(
            n_records=n_records or workload.n_records, seed=seed
        )
        self.specs = [builtin_spec(name, config) for name in workload.figures]
        self.engine = build_engine(jobs=workload.workers)
        self.setup_s = time.perf_counter() - start
        self.workers = workload.workers
        self.steps = workload.steps
        self.work_dir = work_dir
        self._repeats = 0

    def run_once(
        self, host: HostSpeed, engine: Any = None
    ) -> tuple[list[float], list[float], list[Any]]:
        """Wall time of each step, host slowdowns, results.

        The figures run back to back, each in ``steps`` steps, with the
        host's slowdown measured before the first step and after each
        one (the gaps are not counted), so step ``i`` ran between
        slowdowns ``i`` and ``i + 1``.
        """
        from repro.api import run_spec
        from repro.engine import ResultCache

        engine = engine or self.engine
        self._repeats += 1
        root = self.work_dir / f"repeat-{self._repeats}"
        caches = [ResultCache(root / spec.name) for spec in self.specs]
        results = []
        walls = []
        slowdowns = [host.slowdown()]
        start = 0.0

        def between_steps() -> None:
            nonlocal start
            walls.append(time.perf_counter() - start)
            slowdowns.append(host.slowdown())
            start = time.perf_counter()

        stepped = _SteppedEngine(engine, self.steps, between_steps)
        for spec, cache in zip(self.specs, caches):
            engine.cache = cache
            start = time.perf_counter()
            results.append(run_spec(spec, engine=stepped))
            between_steps()
        engine.cache = None
        shutil.rmtree(root, ignore_errors=True)
        return walls, slowdowns, results


class _SteppedEngine:
    """An engine whose ``run`` hands its jobs to ``engine`` in ``steps``
    parts, in order, and calls ``between`` between two parts.

    ``run_spec`` accepts it as its engine, so each figure still runs
    through ``run_spec``: compile, run, aggregate.
    """

    def __init__(self, engine: Any, steps: int, between: Any) -> None:
        self.engine = engine
        self.steps = steps
        self.between = between

    def run(self, jobs: Any) -> list[Any]:
        jobs = list(jobs)
        bounds = [step * len(jobs) // self.steps for step in range(self.steps + 1)]
        results = []
        for step, (first, end) in enumerate(zip(bounds, bounds[1:])):
            if step:
                self.between()
            results.extend(self.engine.run(jobs[first:end]))
        return results


@dataclasses.dataclass
class Repeat:
    kind: str
    walls: list[float]
    slowdowns: list[float]
    jobs: int
    compute: float
    timer: LayerTimer | None

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def scaled_walls(self) -> list[float]:
        """Each step's wall time rescaled to the reference host, by the
        mean of the slowdowns right before and after it."""
        return [
            HostSpeed.scale(wall, (before + after) / 2)
            for wall, before, after in zip(
                self.walls, self.slowdowns, self.slowdowns[1:]
            )
        ]


def scaled_median(repeats: list[Repeat]) -> float:
    """Sum over steps of each step's median rescaled wall time.

    Taking the median per step, not per repeat, lets a stall in one step
    of a repeat (a slow disk write, a change of host speed halfway
    through) drop out without taking the other steps' times with it.
    """
    per_step = zip(*(repeat.scaled_walls for repeat in repeats))
    return sum(statistics.median(times) for times in per_step)


def _plan(trace: bool, workers: int) -> list[str]:
    """Repeat kinds of one measurement cycle.

    ``plain`` runs untraced.  ``traced`` wraps every layer; with a pool
    only the parent-side layers, because wrappers inside workers cannot
    report.  ``serial-traced`` runs the same jobs in-process with every
    layer wrapped, giving a pooled workload its in-job layers.
    """
    if not trace:
        return ["plain"]
    if workers == 1:
        return ["plain", "traced"]
    return ["plain", "traced", "serial-traced"]


def measure(
    runner: Runner,
    host: HostSpeed,
    seconds: float,
    trace: bool,
    reference: dict[str, Any],
) -> dict[str, Any]:
    """Warm up with one untimed cycle, then repeat cycles for ``seconds``.

    A cycle starts only while one more of the same length still fits in
    ``seconds``; at least one is measured.  Every repeat, the warm-up
    included, is one attempted operation and is checked.
    """
    from repro.api import build_engine

    serial_engine = build_engine(jobs=1)
    kinds = _plan(trace, runner.workers)
    pooled = runner.workers > 1
    targets = {
        "plain": [],
        "traced": parent_targets() + ([] if pooled else in_job_targets()),
        "serial-traced": parent_targets() + in_job_targets(),
    }
    outcome: dict[str, Any] = {"attempted": 0, "failed": 0, "problems": []}

    def cycle() -> list[Repeat]:
        done = []
        for kind in kinds:
            outcome["attempted"] += 1
            timer = LayerTimer()
            engine = serial_engine if kind == "serial-traced" else None
            try:
                with timer.patched(targets[kind]):
                    walls, slowdowns, results = runner.run_once(host, engine)
                found = check.problems(results, reference)
            except Exception as exc:  # counted as a failed operation
                found = [f"{kind} repeat raised {type(exc).__name__}: {exc}"]
            if found:
                outcome["failed"] += 1
                outcome["problems"].extend(found[: 20 - len(outcome["problems"])])
                continue
            done.append(
                Repeat(
                    kind,
                    walls,
                    slowdowns,
                    jobs=sum(result.stats["jobs"] for result in results),
                    compute=sum(result.stats["duration"] for result in results),
                    timer=timer if targets[kind] else None,
                )
            )
        return done

    cycle()  # warm-up: lazy imports, allocator growth; checked, not timed
    repeats: list[Repeat] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        repeats.extend(cycle())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    outcome["repeats"] = repeats
    return outcome


def end_to_end_values(repeats: list[Repeat], workers: int) -> dict[str, float]:
    """``wall_s`` and ``peak_rss_mb`` (``setup_s`` comes from fresh processes).

    ``wall_s`` is the host-rescaled wall time of the untraced repeats
    (see :mod:`perfbench.hostspeed`), by :func:`scaled_median`.
    """
    plain = [repeat for repeat in repeats if repeat.kind == "plain"]
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The largest peak of any finished worker (0 without a pool), taken
    # once per worker: an upper bound on the workers' share.
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": scaled_median(plain),
        "peak_rss_mb": (own_kb + workers * worker_kb) / 1024.0,
    }


def layer_values(repeats: list[Repeat], workers: int) -> dict[str, float]:
    """Per-layer medians over the repeats that measure each layer.

    Engine figures come from untraced repeats; parent-side layers from
    ``traced`` ones; in-job layers from repeats that ran jobs in-process
    with every layer wrapped.
    """
    def of(kind: str) -> list[Repeat]:
        return [repeat for repeat in repeats if repeat.kind == kind]

    def median(values: Any) -> float:
        return float(statistics.median(values))

    plain, traced = of("plain"), of("traced")
    in_job = traced if workers == 1 else of("serial-traced")
    values = {
        "engine.jobs": median(r.jobs for r in plain),
        "engine.job_compute_s": median(r.compute for r in plain),
        "engine.overhead_s": median(r.wall - r.compute / workers for r in plain),
        "engine.parallel_efficiency": median(
            r.compute / (workers * r.wall) for r in plain
        ),
        "engine.cache.puts": median(
            r.timer.calls["engine.cache.put"] for r in traced
        ),
        "trace.unattributed_frac": median(
            1.0 - sum(r.timer.self_time[layer] for layer in IN_JOB_LAYERS) / r.compute
            for r in in_job
        ),
        "trace.overhead_frac": scaled_median(traced) / scaled_median(plain),
    }
    for layer in ("api.compile", "api.aggregate", "engine.cache.put"):
        values[f"{layer}_s"] = median(r.timer.self_time[layer] for r in traced)
    for layer in IN_JOB_LAYERS:
        values[f"{layer}_s"] = median(r.timer.self_time[layer] for r in in_job)
        values[f"{layer}.calls"] = median(r.timer.calls[layer] for r in in_job)
    return values


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    return {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time set-up in this fresh process, print it and exit",
    )
    args = parser.parse_args(argv)
    pin_blas_threads()
    workload = WORKLOADS[args.workload]
    work_dir = pathlib.Path(__file__).parent / ".work" / str(os.getpid())
    try:
        runner = Runner(workload, args.seed, work_dir)
        if args.setup_only:
            print(json.dumps({"setup_s": runner.setup_s}))
            return 0
        with HostSpeed(workload.n_records) as host:
            outcome = measure(
                runner,
                host,
                args.seconds,
                bool(args.trace),
                check.load_reference(),
            )
            repeats = outcome["repeats"]
            if not repeats:
                print("error: no repeat passed its check", file=sys.stderr)
                for problem in outcome["problems"]:
                    print(f"  {problem}", file=sys.stderr)
                return 1
            # Before the helper ends, so its memory is not counted.
            e2e = end_to_end_values(repeats, workload.workers)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_dir.parent.rmdir()
    record = {
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "problems": outcome["problems"],
        "environment": environment(workload.workers),
        "samples": {
            f"{kind}_{field}": [getattr(r, field) for r in repeats if r.kind == kind]
            for kind in _plan(bool(args.trace), workload.workers)
            for field in ("walls", "slowdowns", "scaled_walls")
        },
    }
    if args.trace:
        values = layer_values(repeats, workload.workers)
        record["metrics"] = _with_units(values, PER_LAYER)
        record["detail"] = _with_units(values, DETAIL_ONLY)
    else:
        record["metrics"] = _with_units(
            e2e, {name: END_TO_END[name] for name in e2e}
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
