"""Span primitives: the timed, attributed, tree-structured unit of a trace.

A :class:`Span` covers one operation — an engine job, a pipeline phase,
an EM fit — with a wall-clock anchor (``start_unix``, comparable across
processes), a monotonic duration (measured with
:func:`time.perf_counter`, immune to clock steps), free-form attributes,
and child spans.  Spans serialize to plain dicts so a worker process can
ship its subtree back to the parent recorder inside a pickled
:class:`~repro.engine.jobs.JobResult`.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from repro.exceptions import ValidationError
from repro.utils.serialization import sanitize_for_json

__all__ = ["Span"]


class Span:
    """One timed operation in a trace tree.

    Attributes
    ----------
    name:
        Dotted operation label, e.g. ``"engine.job"`` or
        ``"data.moments"``.
    start_unix:
        Wall-clock start (``time.time()``); wall time is the only clock
        comparable across processes, so queue-wait arithmetic uses it.
    duration:
        Elapsed seconds, measured monotonically between :meth:`begin`
        and :meth:`finish`.
    attrs:
        Free-form JSON-serializable annotations (worker id, cache
        provenance, iteration counts, ...).
    children:
        Nested spans, in start order.
    """

    __slots__ = ("name", "start_unix", "duration", "attrs", "children",
                 "_start_perf")

    def __init__(
        self,
        name: str,
        attrs: dict[str, Any] | None = None,
        *,
        start_unix: float | None = None,
        duration: float = 0.0,
    ) -> None:
        if not isinstance(name, str) or not name:
            raise ValidationError(
                f"span name must be a non-empty string, got {name!r}"
            )
        self.name = name
        self.start_unix = (
            time.time() if start_unix is None else float(start_unix)
        )
        self.duration = float(duration)
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.children: list[Span] = []
        self._start_perf: float | None = None

    # ------------------------------------------------------------------
    # lifecycle

    def begin(self) -> "Span":
        """Anchor the wall clock and start the monotonic timer."""
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        return self

    def finish(self) -> "Span":
        """Stop the monotonic timer and fix the duration."""
        if self._start_perf is not None:
            self.duration = time.perf_counter() - self._start_perf
            self._start_perf = None
        return self

    def set(self, **attrs: Any) -> "Span":
        """Merge attributes into the span (chainable)."""
        self.attrs.update(attrs)
        return self

    # ------------------------------------------------------------------
    # traversal

    @property
    def end_unix(self) -> float:
        """Wall-clock end estimate (``start_unix + duration``)."""
        return self.start_unix + self.duration

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def self_time(self) -> float:
        """Duration not covered by direct children (never negative)."""
        return max(
            0.0, self.duration - sum(c.duration for c in self.children)
        )

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON encoding (nan-safe attrs); inverted by :meth:`from_dict`."""
        return {
            "name": self.name,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "attrs": sanitize_for_json(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            raise ValidationError(
                f"span payload must be a dict, got {type(payload).__name__}"
            )
        try:
            span = cls(
                payload["name"],
                payload.get("attrs") or {},
                start_unix=float(payload["start_unix"]),
                duration=float(payload["duration"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed span payload: {exc}") from exc
        for child in payload.get("children") or ():
            span.children.append(cls.from_dict(child))
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )
