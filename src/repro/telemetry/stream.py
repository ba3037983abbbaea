"""Record a run to a ``repro-trace/v2`` stream, and fold one back.

The stream is the one telemetry file a run writes: ``--trace PATH`` on
every experiment subcommand.  The recorder
appends it line by line while the run goes (the line format is
described in :mod:`repro.telemetry.recorder`); this module holds the
two ends around that:

* :func:`traced_run` — the harness the CLI opens around a traced run
  (``--trace PATH``): a streaming recorder, activated, with a
  :class:`~repro.telemetry.sampler.ResourceSampler` feeding it;
* :func:`fold_trace` / :func:`read_trace` — fold the lines (any prefix
  of them: a stream still being written, or cut mid-line) into the
  document :meth:`~repro.telemetry.recorder.Recorder.to_document`
  returns, so the viewer, the diff, and the validator read a stream
  exactly as they read an in-memory recorder.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.exceptions import ValidationError
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder
from repro.telemetry.sampler import ResourceSampler
from repro.telemetry.schema import TRACE_SCHEMA

__all__ = ["TraceStream", "fold_trace", "read_trace", "traced_run"]


@dataclass(frozen=True)
class TraceStream:
    """The fold of a (possibly unfinished) trace stream.

    Attributes
    ----------
    document:
        The trace document; ``schema`` and ``created_unix`` are ``None``
        until the header line has been read.  Spans whose parent has
        not closed yet are promoted to roots.
    metrics:
        Every ``metrics`` line, in order (the watch dashboard's time
        series).
    updated_unix:
        The latest timestamp any line carries, or ``None`` before the
        first line.
    finished:
        Whether the ``end`` line has been read.
    """

    document: dict[str, Any]
    metrics: list[dict[str, Any]]
    updated_unix: float | None
    finished: bool


def fold_trace(text: str) -> TraceStream:
    """Fold the complete lines of ``text``; a trailing partial line
    (a writer mid-line, or a cut copy) is ignored.

    Raises
    ------
    ValidationError
        When a complete line is not JSON, is not an object of a known
        ``kind``, lacks its fields, or the first line is not a header.
    """
    schema: Any = None
    created: Any = None
    nodes: dict[int, dict[str, Any]] = {}
    parents: dict[int, Any] = {}
    metrics: list[dict[str, Any]] = []
    manifest: Any = None
    finished = False
    stamps: list[float] = []
    for number, line in enumerate(text.split("\n")[:-1], start=1):
        try:
            record = json.loads(line)
            kind = record["kind"]
            if schema is None and kind != "header":
                raise ValueError(f"expected a header line, got {kind!r}")
            if kind == "header":
                schema = record["schema"]
                created = record["created_unix"]
                stamps.append(float(created))
            elif kind == "span":
                node: dict[str, Any] = {
                    "name": record["name"],
                    "start_unix": record["start_unix"],
                    "duration": record["duration"],
                    "attrs": record["attrs"],
                    "children": [],
                }
                nodes[int(record["id"])] = node
                parents[int(record["id"])] = record["parent"]
                stamps.append(float(node["start_unix"] + node["duration"]))
            elif kind == "metrics":
                if not isinstance(record["counters"], dict) or not isinstance(
                    record["gauges"], dict
                ):
                    raise ValueError("counters and gauges must be objects")
                stamps.append(float(record["ts_unix"]))
                metrics.append(record)
            elif kind == "end":
                manifest = record["manifest"]
                finished = True
                stamps.append(float(record["ts_unix"]))
            else:
                raise ValueError(f"unknown line kind {kind!r}")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(
                f"line {number} is not a {TRACE_SCHEMA} stream line: {exc}"
            ) from None
    roots: list[dict[str, Any]] = []
    for span_id in sorted(nodes):
        parent = nodes.get(parents[span_id])
        (roots if parent is None else parent["children"]).append(
            nodes[span_id]
        )
    last = metrics[-1] if metrics else {}
    document = {
        "schema": schema,
        "created_unix": created,
        "spans": roots,
        "counters": dict(last.get("counters", {})),
        "gauges": dict(last.get("gauges", {})),
        "manifest": manifest,
    }
    return TraceStream(
        document=document,
        metrics=metrics,
        updated_unix=max(stamps) if stamps else None,
        finished=finished,
    )


def read_trace(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read a trace stream into its document.

    Raises
    ------
    FileNotFoundError
        When ``path`` does not exist.
    ValidationError
        When the file is not a trace stream — including a whole-file
        JSON document such as a ``repro-trace/v1`` trace, which is
        named in the message — or has no header line yet.
    """
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        stream = fold_trace(text)
    except ValidationError:
        try:
            legacy = json.loads(text)
        except ValueError:
            legacy = None
        if not isinstance(legacy, dict) or "schema" not in legacy:
            raise
        raise ValidationError(
            f"{path} is a {legacy['schema']!r} JSON document, not a "
            f"{TRACE_SCHEMA} stream; record the run again with --trace "
            "to read it"
        ) from None
    if stream.document["schema"] is None:
        raise ValidationError(
            f"{path} holds no complete header line: not a "
            f"{TRACE_SCHEMA} stream"
        )
    return stream.document


@contextlib.contextmanager
def traced_run(
    path: str | os.PathLike[str],
    manifest: Callable[[], dict[str, Any]] | None = None,
) -> Iterator[Recorder]:
    """Record everything inside the block to a stream at ``path``.

    Opens a streaming :class:`~repro.telemetry.recorder.Recorder`,
    activates it, and starts a resource sampler (a no-op off Linux).
    On exit the sampler stops first, so its final sample lands in the
    closing ``metrics`` line; then the stream ends with an ``end`` line
    carrying ``manifest()`` — or, when the block raised, with no
    ``end`` line, which is how a reader tells a failed run.

    Parameters
    ----------
    path:
        The trace file (truncated on entry).
    manifest:
        Called once after a successful block to build the run manifest
        the ``end`` line carries; ``None`` writes a null manifest.
    """
    recorder = Recorder(path)
    sampler = ResourceSampler(recorder).start()
    complete = False
    try:
        with trace.recording(recorder):
            yield recorder
        complete = True
    finally:
        sampler.stop()
        recorder.close(
            manifest() if complete and manifest is not None else None,
            complete=complete,
        )
