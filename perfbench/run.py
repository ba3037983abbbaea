"""Run a benchmark workload and print its metrics (see README.md).

    python3 perfbench/run.py --workload paper-serial --seed 2005 \\
        --seconds 30 --trace 0

Run from the repository root.  The workload runs in a fresh process;
with ``--trace 0`` set-up is also timed in ``SETUP_PROBES`` further
fresh processes.  Times are rescaled to a reference host speed (see
``perfbench/hostspeed.py``).  Standard output gets one detail record (environment,
samples, problems) and, as its last line, the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload in both modes and ends with one
combined result.

Exits 2 when the checkout holds no ``src/repro`` package to measure,
and 1 when a workload process fails, without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.workload import END_TO_END, WORKLOADS  # noqa: E402

#: Fresh processes whose set-up times give ``setup_s`` (their median).
SETUP_PROBES = 5
#: Wall-time budget of one workload run, probes included.
DEADLINE_S = 170.0


class WorkloadError(RuntimeError):
    """A workload process failed or ran out of time."""


def _child(arguments: list[str], deadline: float) -> dict[str, Any]:
    """Run ``perfbench.workload`` in a fresh process; its last JSON line."""
    python_path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.workload", *arguments],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, python_path))),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The group holds the workload process and any pool workers.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkloadError(f"{' '.join(arguments)}: timed out") from None
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkloadError(f"{' '.join(arguments)}: exit {process.returncode}")
    return json.loads(lines[-1])


def source_identity() -> dict[str, Any]:
    """Git revision (when the checkout is a repository) and a digest of src/."""
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_rev": revision, "src_sha256": digest.hexdigest()[:16]}


def run_workload(
    name: str, seed: int, seconds: float, trace: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The detail record and the result of one workload run."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    setup = []
    if not trace:
        with HostSpeed() as host:
            slowdown = host.slowdown()
            for _ in range(SETUP_PROBES):
                probe = _child([*base, "--setup-only"], deadline)["setup_s"]
                before, slowdown = slowdown, host.slowdown()
                setup.append(HostSpeed.scale(probe, (before + slowdown) / 2))
    record = _child(
        [*base, "--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    metrics = record["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics = {metric: metrics[metric] for metric in END_TO_END}
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": {**record["environment"], **source_identity()},
        "samples": {**record["samples"], **({"setup_s": setup} if setup else {})},
        "problems": record["problems"],
        **({"detail": record["detail"]} if "detail" in record else {}),
    }
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    try:
        for name, trace in runs:
            detail, result = run_workload(name, args.seed, args.seconds, trace)
            print(json.dumps(detail))
            if len(runs) > 1:
                print(json.dumps(result))
            results.append((name, result))
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) > 1:
        result = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
