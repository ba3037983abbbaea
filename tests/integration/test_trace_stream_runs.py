"""Traced figure runs streamed to disk, read back, watched, and diffed.

Figure 2 at ``n_records=200`` is recorded twice in one process — first
on a 2-worker pool, then serially — through the same
:func:`~repro.telemetry.traced_run` harness ``--trace`` opens.  The
streams must fold back into exactly the in-memory document, render
under ``repro watch --once`` at every prefix, stay within the metrics
line budget, and align span for span in ``repro trace diff``.
"""

from __future__ import annotations

import io
import json
import math
import time

import pytest

from repro.api import SweepConfig, build_engine, builtin_spec, run_spec
from repro.cli import main
from repro.telemetry import (
    build_manifest,
    diff_traces,
    read_trace,
    traced_run,
    validate_trace,
)
from repro.telemetry.watch import watch_loop


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{jobs: (path, recorder, manifest, elapsed_s)}``, pool run first."""
    spec = builtin_spec("figure2", SweepConfig(n_records=200))
    manifest = build_manifest(spec=spec, extra={"command": "test"})
    recorded = {}
    for jobs in (2, 1):
        path = tmp_path_factory.mktemp(f"jobs{jobs}") / "trace.jsonl"
        started = time.perf_counter()
        with traced_run(path, manifest=lambda: manifest) as recorder:
            run_spec(spec, engine=build_engine(jobs=jobs, cache=False))
        recorded[jobs] = (
            path, recorder, manifest, time.perf_counter() - started
        )
    return recorded


@pytest.mark.parametrize("jobs", [1, 2])
def test_read_trace_equals_the_recorder_document(runs, jobs):
    path, recorder, manifest, _ = runs[jobs]
    folded = validate_trace(read_trace(path))
    document = recorder.to_document(manifest=manifest)
    assert folded.pop("created_unix") <= document.pop("created_unix")
    assert folded == document
    assert folded["gauges"]["engine.jobs.completed"] == 12.0


def test_serial_run_after_a_pool_run_reports_no_workers(runs):
    path, _, _, _ = runs[1]
    gauges = read_trace(path)["gauges"]
    assert not [name for name in gauges if name.startswith("resource.worker")]


def test_serial_run_writes_at_most_one_metrics_line_a_second(runs):
    path, _, _, elapsed = runs[1]
    kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
    assert kinds[0] == "header"
    assert kinds[-1] == "end"
    assert 1 <= kinds.count("metrics") <= math.ceil(elapsed) + 2


def test_trace_diff_of_the_two_runs_aligns_every_span(runs):
    diff = diff_traces(read_trace(runs[1][0]), read_trace(runs[2][0]))
    assert diff["spans"]
    assert {row["status"] for row in diff["spans"]} == {"common"}


def test_cli_validate_diff_and_watch(runs, capsys):
    serial, pooled = str(runs[1][0]), str(runs[2][0])
    assert main(["trace", serial, "--validate"]) == 0
    assert "valid repro-trace/v2 stream" in capsys.readouterr().out
    assert main(["trace", "diff", serial, pooled]) == 0
    out = capsys.readouterr().out
    assert "only in" not in out
    assert main(["watch", serial, "--once"]) == 0
    frame = capsys.readouterr().out
    assert "12/12 jobs (100%, 0 cached)" in frame
    assert "run complete" in frame


def test_every_prefix_folds_and_renders(runs, tmp_path):
    text = runs[1][0].read_text()
    cuts = set()
    offset = 0
    for line in text.splitlines(keepends=True):
        cuts.update({offset, offset + len(line) // 2})
        offset += len(line)
    cuts.add(len(text))
    target = tmp_path / "prefix.jsonl"
    for cut in sorted(cuts):
        target.write_text(text[:cut])
        out = io.StringIO()
        assert watch_loop(target, out, once=True) == 0, cut
        assert ("run complete" in out.getvalue()) == (cut == len(text)), cut
