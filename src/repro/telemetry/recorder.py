"""The thread-safe in-process trace collector.

One :class:`Recorder` holds everything a run produces: span trees (one
stack per thread, so spans started on different threads nest correctly
and never interleave), monotonic counters, and last-value gauges.  It
serializes to the versioned ``repro-trace/v1`` document (see
:mod:`repro.telemetry.schema`) and can *adopt* serialized fragments —
the mechanism by which spans recorded inside the engine's worker
processes merge into the parent trace.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.exceptions import ValidationError
from repro.telemetry.schema import TRACE_SCHEMA
from repro.telemetry.spans import Span

__all__ = ["Recorder"]


class Recorder:
    """Collects spans, counters, and gauges for one traced run.

    Thread model: each thread gets its own span stack (``threading.
    local``), so a span's children are always appended by the thread
    that opened it and need no lock; the shared root list, counters,
    and gauges are mutated under a single lock.  A span opened on a
    thread with an empty stack becomes an additional root.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: list[Span] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

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
        else:
            with self._lock:
                self.roots.append(span)
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
        return span.finish()

    def adopt(self, fragment: dict[str, Any]) -> Span:
        """Graft a serialized trace fragment under the current span.

        ``fragment`` is :meth:`export_fragment` output shipped from
        another process (or an already-serialized span dict).  The
        fragment's span tree becomes a child of the calling thread's
        current span (or a new root), its counters merge additively
        into this recorder's, and its gauges merge last-value-wins —
        so a worker's ``kernel.*`` convergence heartbeats surface in
        the parent's metrics ring as each job completes.
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

    def metrics_view(self) -> tuple[dict[str, float], dict[str, float]]:
        """Consistent copies of ``(counters, gauges)`` under the lock.

        The metrics exporter's read path: a snapshot taken while other
        threads are counting must never observe a dict mid-mutation.
        """
        with self._lock:
            return dict(self.counters), dict(self.gauges)

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
        """The full ``repro-trace/v1`` document for this recorder."""
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
