"""Record a run to a ``repro-trace/v2`` stream, and fold one back.

The stream is the one telemetry file a run writes: ``--trace PATH`` on
every experiment subcommand.  The recorder
appends it line by line while the run goes (the line format is
described in :mod:`repro.telemetry.recorder`); this module holds the
two ends around that:

* :func:`traced_run` — the harness the CLI opens around a traced run
  (``--trace PATH``): a streaming recorder, activated, that publishes
  the run's peak RSS and CPU from ``getrusage`` when it ends;
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
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.exceptions import ValidationError
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder
from repro.telemetry.schema import TRACE_SCHEMA

try:
    import resource
except ImportError:  # Windows: no getrusage, so no resource.* gauges
    resource = None  # type: ignore[assignment]

__all__ = ["TraceStream", "fold_trace", "read_trace", "traced_run"]


@dataclass(frozen=True)
class TraceStream:
    """The fold of a (possibly unfinished) trace stream.

    Attributes
    ----------
    document:
        The trace document; ``schema`` and ``created_unix`` are ``None``
        until the header line has been read.  Spans whose parent has
        not closed yet are promoted to roots.  Counters and gauges
        come from the last ``metrics`` line.
    finished:
        Whether the ``end`` line has been read; a run that raised
        leaves none.
    """

    document: dict[str, Any]
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
    last: dict[str, Any] = {}
    manifest: Any = None
    finished = False
    for number, line in enumerate(text.split("\n")[:-1], start=1):
        try:
            record = json.loads(line)
            kind = record["kind"]
            if schema is None and kind != "header":
                raise ValueError(f"expected a header line, got {kind!r}")
            if kind == "header":
                schema = record["schema"]
                created = record["created_unix"]
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
            elif kind == "metrics":
                if not isinstance(record["counters"], dict) or not isinstance(
                    record["gauges"], dict
                ):
                    raise ValueError("counters and gauges must be objects")
                last = record
            elif kind == "end":
                manifest = record["manifest"]
                finished = True
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
    document = {
        "schema": schema,
        "created_unix": created,
        "spans": roots,
        "counters": dict(last.get("counters", {})),
        "gauges": dict(last.get("gauges", {})),
        "manifest": manifest,
    }
    return TraceStream(document=document, finished=finished)


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


#: ``ru_maxrss`` is counted in KiB on Linux and in bytes on macOS.
_MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024


def _publish_usage(recorder: Recorder, children_before: Any) -> None:
    """Publish the run's ``resource.*`` gauges from ``getrusage``.

    ``resource.rss_peak_bytes`` and ``resource.cpu_seconds`` are this
    process's peak resident set and CPU time.  The two
    ``resource.workers.*`` gauges are written only when a child was
    reaped since ``children_before`` was read (its ``ru_minflt``
    grew): the largest peak resident set of any child reaped since the
    process started, and the CPU time of the children reaped in
    between.  The children's counters do not start at zero: they carry
    over from whatever the process reaped before it exec'd the
    interpreter, such as a launcher script's subprocesses, so
    "nonzero" would not tell a serial run from a pooled one.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    recorder.gauge(
        "resource.rss_peak_bytes", float(own.ru_maxrss * _MAXRSS_BYTES)
    )
    recorder.gauge("resource.cpu_seconds", own.ru_utime + own.ru_stime)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    if children.ru_minflt > children_before.ru_minflt:
        recorder.gauge(
            "resource.workers.rss_peak_bytes",
            float(children.ru_maxrss * _MAXRSS_BYTES),
        )
        recorder.gauge(
            "resource.workers.cpu_seconds",
            (children.ru_utime + children.ru_stime)
            - (children_before.ru_utime + children_before.ru_stime),
        )


@contextlib.contextmanager
def traced_run(
    path: str | os.PathLike[str],
    manifest: Callable[[], dict[str, Any]] | None = None,
) -> Iterator[Recorder]:
    """Record everything inside the block to a stream at ``path``.

    Opens a streaming :class:`~repro.telemetry.recorder.Recorder` and
    activates it.  On exit the run's peak RSS and CPU are published as
    ``resource.*`` gauges (none where ``getrusage`` is missing), so the
    closing ``metrics`` line carries them; then the stream ends with an
    ``end`` line carrying ``manifest()`` — or, when the block raised,
    with no ``end`` line, which is how a reader tells a failed run.
    The gauges are read before ``manifest()`` runs, because building
    the manifest starts child processes of its own.

    Parameters
    ----------
    path:
        The trace file (truncated on entry).
    manifest:
        Called once after a successful block to build the run manifest
        the ``end`` line carries; ``None`` writes a null manifest.
    """
    recorder = Recorder(path)
    children = (
        None
        if resource is None
        else resource.getrusage(resource.RUSAGE_CHILDREN)
    )
    complete = False
    try:
        with trace.recording(recorder):
            yield recorder
        complete = True
    finally:
        if resource is not None:
            _publish_usage(recorder, children)
        recorder.close(
            manifest() if complete and manifest is not None else None,
            complete=complete,
        )
