"""The thread-safe trace collector, optionally streaming to disk.

One :class:`Recorder` holds everything a run produces: span trees (one
stack per thread, so spans started on different threads nest correctly
and never interleave), monotonic counters, and last-value gauges.  It
serializes to the ``repro-trace/v2`` document (see
:mod:`repro.telemetry.schema`) and can *adopt* serialized fragments —
the mechanism by which spans recorded inside the engine's worker
processes merge into the parent trace.

Given a path, the recorder also writes the run to disk *while it
goes*, as an append-only JSONL stream (one JSON object per line, each
tagged with a ``kind``):

``header``
    First line: ``schema`` and ``created_unix``.
``span``
    One per closed span: ``id``, ``parent`` (``null`` for a root),
    ``name``, ``start_unix``, ``duration``, ``attrs``.  Ids are handed
    out in the order spans open (or are adopted), so sorting siblings
    by id restores their start order.  An adopted worker fragment is
    written, span by span, when it is adopted.
``metrics``
    ``ts_unix`` plus every counter and gauge.  Written once, by
    :meth:`Recorder.close`, also when the run raised.  Streams written
    by older builds may hold several; a reader takes the last.
``end``
    Last line of a run that finished: ``ts_unix`` and the run
    ``manifest``.

:func:`repro.telemetry.stream.read_trace` folds the lines back into the
document :meth:`Recorder.to_document` returns.  Without a path the
recorder stays in memory (worker processes, tests).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, TextIO

from repro.exceptions import ValidationError
from repro.telemetry.schema import TRACE_SCHEMA
from repro.telemetry.spans import Span
from repro.utils.serialization import sanitize_for_json

__all__ = ["Recorder"]


class Recorder:
    """Collects spans, counters, and gauges for one traced run.

    Thread model: each thread gets its own span stack (``threading.
    local``), so a span's children are always appended by the thread
    that opened it and need no lock; the shared root list, counters,
    gauges, and stream writes are serialized under a single lock.  A
    span opened on a thread with an empty stack becomes an additional
    root.

    Parameters
    ----------
    path:
        Where to stream the run as ``repro-trace/v2`` JSONL (truncated
        on open); ``None`` (default) keeps everything in memory.  A
        streaming recorder must be closed with :meth:`close`.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: list[Span] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._stream: TextIO | None = None
        # Stream ids of the spans still open (only used when streaming).
        self._ids: dict[Span, int] = {}
        self._next_id = itertools.count()
        if path is not None:
            self._stream = open(path, "w", buffering=1, encoding="utf-8")
            self._write(
                {
                    "kind": "header",
                    "schema": TRACE_SCHEMA,
                    "created_unix": time.time(),
                }
            )

    # ------------------------------------------------------------------
    # span lifecycle

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin_span(
        self, name: str, attrs: dict[str, Any] | None = None
    ) -> Span:
        """Open a span nested under the calling thread's current span."""
        span = Span(name, attrs).begin()
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
            if self._stream is not None:
                self._ids[span] = next(self._next_id)
        else:
            with self._lock:
                self.roots.append(span)
                if self._stream is not None:
                    self._ids[span] = next(self._next_id)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close a span; it must be the thread's innermost open span."""
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise ValidationError(
                f"cannot end span {span.name!r}: it is not the innermost "
                "open span on this thread (unbalanced begin/end nesting)"
            )
        stack.pop()
        span.finish()
        if self._stream is not None:
            parent = self._ids.get(stack[-1]) if stack else None
            self._write_span(span, self._ids.pop(span), parent)
        return span

    def adopt(self, fragment: dict[str, Any]) -> Span:
        """Graft a serialized trace fragment under the current span.

        ``fragment`` is :meth:`export_fragment` output shipped from
        another process (or an already-serialized span dict).  The
        fragment's span tree becomes a child of the calling thread's
        current span (or a new root), its counters merge additively
        into this recorder's, and its gauges merge last-value-wins —
        so a worker's counters and gauges reach the run's ``metrics``
        line.
        """
        if not isinstance(fragment, dict):
            raise ValidationError(
                f"trace fragment must be a dict, got "
                f"{type(fragment).__name__}"
            )
        payload = fragment.get("span", fragment)
        span = Span.from_dict(payload)
        parent = self.current_span()
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        if self._stream is not None:
            self._write_tree(
                span, None if parent is None else self._ids.get(parent)
            )
        for name, value in (fragment.get("counters") or {}).items():
            self.count(name, value)
        for name, value in (fragment.get("gauges") or {}).items():
            self.gauge(name, value)
        return span

    # ------------------------------------------------------------------
    # metrics

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a monotonic counter (created at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge."""
        with self._lock:
            self.gauges[name] = value

    # ------------------------------------------------------------------
    # the stream

    def _write(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, allow_nan=False) + "\n"
        with self._lock:
            if self._stream is not None:
                self._stream.write(line)

    def _write_span(self, span: Span, span_id: int, parent: int | None) -> None:
        self._write(
            {
                "kind": "span",
                "id": span_id,
                "parent": parent,
                "name": span.name,
                "start_unix": span.start_unix,
                "duration": span.duration,
                "attrs": sanitize_for_json(span.attrs),
            }
        )

    def _write_tree(self, span: Span, parent: int | None) -> None:
        """Stream an adopted subtree, ids allocated in pre-order."""
        span_id = next(self._next_id)
        self._write_span(span, span_id, parent)
        for child in span.children:
            self._write_tree(child, span_id)

    def close(
        self, manifest: dict[str, Any] | None = None, *, complete: bool = True
    ) -> None:
        """Finish the stream: the ``metrics`` line, then the ``end``
        line carrying ``manifest`` unless ``complete`` is false (a run
        that failed leaves no ``end`` line).  Idempotent; a no-op for
        an in-memory recorder."""
        if self._stream is None:
            return
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
        self._write(
            {
                "kind": "metrics",
                "ts_unix": time.time(),
                "counters": counters,
                "gauges": gauges,
            }
        )
        if complete:
            self._write(
                {
                    "kind": "end",
                    "ts_unix": time.time(),
                    "manifest": sanitize_for_json(manifest),
                }
            )
        with self._lock:
            stream, self._stream = self._stream, None
        if stream is not None:
            stream.close()

    # ------------------------------------------------------------------
    # serialization

    def export_fragment(self) -> dict[str, Any]:
        """A picklable/JSON-safe fragment for cross-process adoption.

        Returns the single root span when there is exactly one, or a
        synthetic ``"worker"`` container span when the traced code
        spawned several roots (e.g. from extra threads).
        """
        with self._lock:
            roots = list(self.roots)
            counters = dict(self.counters)
            gauges = dict(self.gauges)
        if len(roots) == 1:
            root = roots[0]
        else:
            root = Span("worker")
            if roots:
                root.start_unix = min(span.start_unix for span in roots)
                root.duration = (
                    max(span.end_unix for span in roots) - root.start_unix
                )
            root.children.extend(roots)
        return {
            "span": root.to_dict(),
            "counters": counters,
            "gauges": gauges,
        }

    def to_document(
        self, *, manifest: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """The full ``repro-trace/v2`` document for this recorder."""
        with self._lock:
            spans = [root.to_dict() for root in self.roots]
            counters = dict(self.counters)
            gauges = dict(self.gauges)
        return {
            "schema": TRACE_SCHEMA,
            "created_unix": time.time(),
            "spans": spans,
            "counters": counters,
            "gauges": gauges,
            "manifest": manifest,
        }

    def __repr__(self) -> str:
        return (
            f"Recorder(roots={len(self.roots)}, "
            f"counters={len(self.counters)}, gauges={len(self.gauges)})"
        )
