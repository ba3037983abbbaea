"""Unit tests for the ``repro watch`` dashboard renderer and loop.

Every frame renders from a folded ``repro-trace/v2`` stream: the tests
write the lines a recorder would (header, ``metrics``, ``end``) and
render the fold at a fixed "now".
"""

import io
import json

import pytest

from repro.exceptions import ValidationError
from repro.telemetry import TRACE_SCHEMA, fold_trace
from repro.telemetry.watch import STALE_AFTER, render_watch, watch_loop


def _metrics(*, counters=None, gauges=None, ts=1000.0):
    return {
        "kind": "metrics",
        "ts_unix": ts,
        "counters": counters or {},
        "gauges": gauges or {},
    }


def _progress(total, completed, cached=0.0):
    return {
        "engine.jobs.total": float(total),
        "engine.jobs.completed": float(completed),
        "engine.jobs.cached": float(cached),
    }


def _text(*lines, end_ts=None, created=999.0):
    records = [
        {"kind": "header", "schema": TRACE_SCHEMA, "created_unix": created},
        *lines,
    ]
    if end_ts is not None:
        records.append({"kind": "end", "ts_unix": end_ts, "manifest": None})
    return "".join(json.dumps(record) + "\n" for record in records)


def _render(*lines, end_ts=None, now=1001.0):
    return render_watch(fold_trace(_text(*lines, end_ts=end_ts)), now=now)


class TestRenderWatch:
    def test_render_is_deterministic_for_a_fixed_now(self):
        text = _text(
            _metrics(gauges=_progress(8, 2), ts=1000.0),
            _metrics(
                counters={"kernel.em.fit.fits": 4},
                gauges={
                    **_progress(8, 4, cached=1),
                    "kernel.em.fit.iterations": 9.0,
                    "kernel.em.fit.objective": -1.75,
                    "kernel.em.fit.converged": 1.0,
                },
                ts=1001.0,
            ),
        )
        first = render_watch(fold_trace(text), now=1002.0)
        second = render_watch(fold_trace(text), now=1002.0)
        assert first == second
        assert first.startswith(
            f"repro watch  {TRACE_SCHEMA}  (2 metrics line(s)"
        )
        assert "4/8 jobs (50%, 1 cached)" in first
        assert "2.0 jobs/s" in first
        assert "eta 2.00s" in first
        assert "em.fit" in first
        assert "ok" in first
        assert "run complete" not in first

    def test_header_only_stream_renders_a_placeholder(self):
        frame = _render()
        assert "(0 metrics line(s)" in frame
        assert "(no metrics yet)" in frame

    def test_empty_text_renders_without_a_schema(self):
        frame = render_watch(fold_trace(""), now=1.0)
        assert frame.startswith("repro watch  ?  (0 metrics line(s))")
        assert "ago" not in frame

    def test_fresh_stream_is_not_stale(self):
        frame = _render(_metrics(ts=1000.0), now=1000.0 + 2)
        assert "updated 2.00s ago" in frame
        assert "stale" not in frame

    def test_old_unfinished_stream_is_labelled_stale(self):
        frame = _render(_metrics(ts=1000.0), now=1000.0 + STALE_AFTER + 5)
        assert "stale" in frame
        assert "run complete" not in frame

    def test_staleness_comes_from_the_last_line_of_any_kind(self):
        span = {
            "kind": "span",
            "id": 0,
            "parent": None,
            "name": "engine.job",
            "start_unix": 1000.0,
            "duration": 30.0,
            "attrs": {},
        }
        frame = _render(
            _metrics(ts=1000.0), span, now=1030.0 + STALE_AFTER - 1
        )
        assert "stale" not in frame

    def test_finished_stream_says_run_complete_and_is_never_stale(self):
        frame = _render(
            _metrics(gauges=_progress(6, 6), ts=1000.0),
            end_ts=1000.5,
            now=1000.5 + STALE_AFTER + 60,
        )
        assert "6/6 jobs (100%, 0 cached)" in frame
        assert frame.rstrip().endswith("run complete")
        assert "stale" not in frame
        assert "eta" not in frame

    def test_complete_job_count_alone_is_not_run_complete(self):
        frame = _render(_metrics(gauges=_progress(6, 6)))
        assert "6/6 jobs" in frame
        assert "run complete" not in frame

    def test_rate_trend_spans_the_metrics_lines(self):
        lines = [
            _metrics(gauges=_progress(10, tick * tick), ts=1000.0 + tick)
            for tick in range(4)
        ]
        frame = _render(*lines, now=1004.0)
        assert "5.0 jobs/s" in frame  # (9 - 4) jobs over the last second
        assert "rate trend" in frame

    def test_a_single_rate_draws_no_trend(self):
        frame = _render(
            _metrics(gauges=_progress(10, 1), ts=1000.0),
            _metrics(gauges=_progress(10, 3), ts=1001.0),
        )
        assert "2.0 jobs/s" in frame
        assert "rate trend" not in frame

    def test_a_new_engine_run_restarts_the_rate(self):
        # The completed count drops when a second engine run starts in
        # the same trace; that interval has no meaningful rate.
        frame = _render(
            _metrics(gauges=_progress(4, 4), ts=1000.0),
            _metrics(gauges=_progress(6, 1), ts=1001.0),
        )
        assert "1/6 jobs" in frame
        assert "jobs/s" not in frame

    def test_no_progress_block_without_engine_gauges(self):
        frame = _render(_metrics(counters={"cache.hit": 1}))
        assert "progress:" not in frame

    def test_resource_gauges_render(self):
        frame = _render(
            _metrics(
                gauges={
                    "resource.rss_bytes": 50 * 2**20,
                    "resource.rss_peak_bytes": 80 * 2**20,
                    "resource.workers.rss_peak_bytes": 30 * 2**20,
                    "resource.worker.1.rss_peak_bytes": 30 * 2**20,
                    "resource.worker.2.rss_peak_bytes": 25 * 2**20,
                }
            )
        )
        assert "resources:" in frame
        assert "parent   rss peak 80.0MiB" in frame
        assert "workers  rss peak 30.0MiB" in frame
        worker_rows = [line.split() for line in frame.splitlines()[-2:]]
        assert worker_rows == [["1", "30.0MiB", "0us"], ["2", "25.0MiB", "0us"]]

    def test_resources_come_from_the_latest_metrics_line(self):
        frame = _render(
            _metrics(gauges={"resource.rss_peak_bytes": 10 * 2**20}),
            _metrics(gauges={"resource.rss_peak_bytes": 20 * 2**20}),
        )
        assert "peak 20.0MiB" in frame
        assert "peak 10.0MiB" not in frame

    @pytest.mark.parametrize(
        "gauges,counters,state",
        [
            ({"kernel.k.converged": 1.0}, {}, "ok"),
            ({"kernel.k.converged": 0.0}, {}, "fitting"),
            ({}, {"kernel.k.nonconverged": 1}, "DIVERGED"),
            ({}, {"kernel.k.nonfinite": 2}, "NONFINITE"),
        ],
    )
    def test_kernel_state_logic(self, gauges, counters, state):
        counters = {"kernel.k.fits": 1, **counters}
        frame = _render(_metrics(counters=counters, gauges=gauges))
        assert state in frame

    def test_nonfinite_outranks_nonconverged(self):
        frame = _render(
            _metrics(
                counters={
                    "kernel.k.nonfinite": 1,
                    "kernel.k.nonconverged": 1,
                }
            )
        )
        assert "NONFINITE" in frame
        assert "DIVERGED" not in frame

    def test_objective_trend_spans_the_metrics_lines(self):
        lines = [
            _metrics(
                counters={"kernel.k.fits": 1},
                gauges={"kernel.k.objective": float(value)},
                ts=1000.0 + value,
            )
            for value in range(5)
        ]
        frame = _render(*lines, now=1005.0)
        [row] = [line for line in frame.splitlines() if "  k  " in line]
        assert row.rstrip().endswith(" :=*%")  # rising objective

    def test_non_stream_argument_raises(self):
        with pytest.raises(ValidationError, match="TraceStream"):
            render_watch({"schema": TRACE_SCHEMA})


class TestWatchLoop:
    def test_once_renders_a_finished_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            _text(_metrics(gauges=_progress(2, 2)), end_ts=1000.0)
        )
        stream = io.StringIO()
        assert watch_loop(path, stream, once=True) == 0
        output = stream.getvalue()
        assert "repro watch" in output
        assert "2/2 jobs (100%" in output
        assert "run complete" in output
        assert "\x1b[" not in output  # no ANSI control codes off-tty

    def test_once_renders_a_stream_cut_mid_line(self, tmp_path):
        text = _text(_metrics(gauges=_progress(2, 1)), end_ts=1000.0)
        path = tmp_path / "trace.jsonl"
        path.write_text(text[: len(text) - 10])  # the end line is torn
        stream = io.StringIO()
        assert watch_loop(path, stream, once=True) == 0
        output = stream.getvalue()
        assert "1/2 jobs" in output
        assert "run complete" not in output

    def test_once_missing_file_exits_nonzero(self, tmp_path):
        stream = io.StringIO()
        code = watch_loop(tmp_path / "absent.jsonl", stream, once=True)
        assert code == 1
        assert "No such file" in stream.getvalue()

    def test_once_corrupt_stream_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "repro-trace/v1",\n')
        stream = io.StringIO()
        assert watch_loop(path, stream, once=True) == 1
        assert "cannot read trace stream" in stream.getvalue()

    def test_invalid_interval_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="interval"):
            watch_loop(tmp_path / "t.jsonl", io.StringIO(), interval=0)


def test_traced_kalman_run_has_a_kernel_trend(tmp_path):
    """Kalman records delta and condition but no objective: the value
    column and trend fall back to delta.  Two fits, a ``metrics`` line
    after each, draw a two-point trend."""
    import numpy as np

    from repro.randomization.additive import AdditiveNoiseScheme
    from repro.reconstruction.kalman import KalmanSmootherReconstructor
    from repro.telemetry import traced_run

    def series(seed):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.normal(size=(60, 2)), axis=0) * 0.1
        return AdditiveNoiseScheme(std=1.0).disguise(walk, rng=seed + 1)

    path = tmp_path / "kalman.jsonl"
    with traced_run(path) as recorder:
        KalmanSmootherReconstructor().reconstruct(series(3))
        recorder.write_metrics()
        KalmanSmootherReconstructor().reconstruct(series(5))
    frame = render_watch(fold_trace(path.read_text()), now=0.0)
    [row] = [line for line in frame.splitlines() if "kalman.filter" in line]
    kernel, fits, _, _, value, state, trend = row.split()
    assert (kernel, fits, state) == ("kalman.filter", "2", "ok")
    assert float(value) > 0.0  # the last delta
    assert trend.strip()
