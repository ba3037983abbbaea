"""Live run dashboard: tail a ``repro-trace/v2`` stream in the terminal.

``repro watch trace.jsonl`` folds the stream a traced run is appending
to (:func:`~repro.telemetry.stream.fold_trace`) and renders it —
progress bar, job rate and ETA, and worker RSS — then redraws on an
interval.  Progress, rate, and the rate trend come from the stream's
``metrics`` lines; the staleness label
from the time of its last line; "run complete" from its ``end`` line.
Everything is derived from the on-disk file, so the dashboard attaches
to any running sweep (same host or a copied file) without touching the
run.

:func:`render_watch` is a pure function of the fold (plus an explicit
"now" timestamp), which is what the tests pin and what ``repro watch
--once`` prints for CI logs; :func:`watch_loop` adds the redraw loop
around it.  Clock reads flow through the sanctioned
:mod:`repro.telemetry._clock` shims (the ``wall-clock`` check rule
covers this module).
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Any, TextIO

from repro.exceptions import ValidationError
from repro.telemetry._clock import wall_now
from repro.telemetry.stream import TraceStream, fold_trace
from repro.telemetry.viewer import format_seconds, render_resources, sparkline

__all__ = ["render_watch", "watch_loop"]

#: An unfinished stream whose last line is older than this many seconds
#: is labelled stale (the run died, or the file is a copy).
STALE_AFTER = 10.0

#: Progress bar width in characters.
_BAR_WIDTH = 30


def _progress_lines(metrics: list[dict[str, Any]]) -> list[str]:
    """Progress bar, rate + ETA, and the rate trend over the stream."""
    points = [
        (
            float(line["ts_unix"]),
            float(line["gauges"]["engine.jobs.total"]),
            float(line["gauges"].get("engine.jobs.completed", 0.0)),
            float(line["gauges"].get("engine.jobs.cached", 0.0)),
        )
        for line in metrics
        if "engine.jobs.total" in line["gauges"]
    ]
    if not points:
        return []
    # Rate between consecutive metrics lines; a drop in the completed
    # count means a new engine run started, which has no rate yet.
    rates = [
        (done_b - done_a) / (ts_b - ts_a)
        for (ts_a, _, done_a, _), (ts_b, _, done_b, _) in zip(
            points, points[1:]
        )
        if ts_b > ts_a and done_b >= done_a
    ]
    _, total, completed, cached = points[-1]
    fraction = min(max(completed / total, 0.0), 1.0) if total > 0 else 0.0
    filled = round(fraction * _BAR_WIDTH)
    bar = "#" * filled + "." * (_BAR_WIDTH - filled)
    line = (
        f"  [{bar}] {completed:.0f}/{total:.0f} jobs "
        f"({fraction:.0%}, {cached:.0f} cached)"
    )
    if rates:
        line += f"  {rates[-1]:.1f} jobs/s"
        if rates[-1] > 0 and completed < total:
            line += f"  eta {format_seconds((total - completed) / rates[-1])}"
    lines = ["", "progress:", line]
    if len(rates) > 1:
        lines.append(f"  rate trend  {sparkline(rates, width=_BAR_WIDTH)}")
    return lines


def render_watch(stream: TraceStream, *, now: float | None = None) -> str:
    """Render one frame of the watch dashboard from a folded stream.

    Pure: the output depends only on ``stream`` and ``now`` (the
    wall-clock timestamp used for the staleness label; pass a fixed
    value for deterministic output, as the tests and ``--once`` CI
    renders do).

    Parameters
    ----------
    stream:
        A :func:`~repro.telemetry.stream.fold_trace` result.
    now:
        Wall-clock "now" in epoch seconds; defaults to the current
        time via the sanctioned clock shim.
    """
    if not isinstance(stream, TraceStream):
        raise ValidationError(
            f"render_watch needs a folded TraceStream, got "
            f"{type(stream).__name__}"
        )
    stamp = wall_now() if now is None else float(now)
    metrics = stream.metrics
    header = (
        f"repro watch  {stream.document['schema'] or '?'}  "
        f"({len(metrics)} metrics line(s)"
    )
    if stream.updated_unix is not None:
        age = max(stamp - stream.updated_unix, 0.0)
        header += f", updated {format_seconds(age)} ago"
        if age > STALE_AFTER and not stream.finished:
            header += ", stale"
    header += ")"
    lines = [header]
    lines.extend(_progress_lines(metrics))
    if metrics:
        lines.extend(render_resources(metrics[-1]["gauges"]))
    if not metrics:
        lines.append("  (no metrics yet)")
    if stream.finished:
        lines.extend(["", "run complete"])
    return "\n".join(lines)


def watch_loop(
    path: str | os.PathLike[str],
    stream: TextIO,
    *,
    interval: float = 1.0,
    once: bool = False,
) -> int:
    """Tail a trace stream and redraw the dashboard.

    Parameters
    ----------
    path:
        The ``repro-trace/v2`` stream a traced run is appending to (or
        has finished — a finished stream renders its final state).
    stream:
        Output target; ANSI clear-screen codes are only emitted when it
        reports being a terminal.
    interval:
        Seconds between redraws.
    once:
        Render a single frame and return (the CI mode).

    Returns
    -------
    int
        Process exit code: 0 normally, 1 when the file is missing or
        not a trace stream in ``once`` mode.
    """
    if not isinstance(interval, (int, float)) or interval <= 0:
        raise ValidationError(
            f"watch interval must be a positive number, got {interval!r}"
        )
    target = pathlib.Path(path)
    is_tty = bool(getattr(stream, "isatty", lambda: False)())
    while True:
        folded: TraceStream | None = None
        try:
            folded = fold_trace(target.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, ValidationError) as exc:
            if once:
                stream.write(f"error: cannot read trace stream: {exc}\n")
                return 1
        if folded is not None:
            frame = render_watch(folded)
            if is_tty and not once:
                stream.write("\x1b[2J\x1b[H")
            stream.write(frame + "\n")
            stream.flush()
            if once:
                return 0
        try:
            time.sleep(float(interval))
        except KeyboardInterrupt:
            return 0
