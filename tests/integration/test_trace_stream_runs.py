"""Traced figure runs streamed to disk, read back and diffed.

Figure 2 at ``n_records=200`` is recorded twice in one process — first
on a 2-worker pool, then serially — through the same
:func:`~repro.telemetry.traced_run` harness ``--trace`` opens.  The
streams must fold back into exactly the in-memory document, fold at
every prefix (a run still going, or one cut short), hold one
``metrics`` line, and align span for span in ``repro trace diff``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import SweepConfig, build_engine, builtin_spec, run_spec
from repro.cli import main
from repro.telemetry import (
    build_manifest,
    diff_traces,
    fold_trace,
    read_trace,
    traced_run,
    validate_trace,
)


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
    [run] = folded["spans"]
    assert run["attrs"]["jobs"] == 12
    assert [job["name"] for job in run["children"]] == ["engine.job"] * 12


def test_serial_run_after_a_pool_run_reports_no_workers(runs):
    path, _, _, _ = runs[1]
    gauges = read_trace(path)["gauges"]
    assert not [name for name in gauges if name.startswith("resource.worker")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_writes_one_metrics_line(runs, jobs):
    path = runs[jobs][0]
    kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
    assert kinds[0] == "header"
    assert kinds[-2:] == ["metrics", "end"]
    assert kinds.count("metrics") == 1


def test_trace_diff_of_the_two_runs_aligns_every_span(runs):
    diff = diff_traces(read_trace(runs[1][0]), read_trace(runs[2][0]))
    assert diff["spans"]
    assert {row["status"] for row in diff["spans"]} == {"common"}


def test_cli_validate_render_and_diff(runs, capsys):
    serial, pooled = str(runs[1][0]), str(runs[2][0])
    assert main(["trace", serial, "--validate"]) == 0
    assert "valid repro-trace/v2 stream" in capsys.readouterr().out
    assert main(["trace", pooled]) == 0
    assert "resources:" in capsys.readouterr().out
    assert main(["trace", "diff", serial, pooled]) == 0
    out = capsys.readouterr().out
    assert "only in" not in out


def test_every_prefix_folds_and_reads(runs, tmp_path):
    text = runs[1][0].read_text()
    cuts = set()
    offset = 0
    for line in text.splitlines(keepends=True):
        cuts.update({offset, offset + len(line) // 2})
        offset += len(line)
    cuts.add(len(text))
    target = tmp_path / "prefix.jsonl"
    for cut in sorted(cuts):
        stream = fold_trace(text[:cut])
        assert stream.finished == (cut == len(text)), cut
        if stream.document["schema"] is None:
            continue  # no complete header line yet
        target.write_text(text[:cut])
        document = validate_trace(read_trace(target))
        assert (document["manifest"] is not None) == stream.finished, cut
