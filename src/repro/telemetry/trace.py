"""The tracing facade instrumented code calls.

Usage in instrumented modules::

    from repro.telemetry import trace

    with trace.span("data.moments", n=n, m=m):
        ...
    trace.count("cache.hit")

The module holds at most one *active* :class:`~repro.telemetry.
recorder.Recorder` per process.  When none is active — the default —
every call here is a no-op on a fast path: :func:`span` returns a
shared singleton context manager and :func:`count`/:func:`gauge`
return after one global read, so permanently-instrumented hot paths
cost nothing measurable when tracing is off (pinned under 2% of a
Kalman smooth by the overhead-budget tests in
``tests/unit/test_telemetry.py``).
"""

from __future__ import annotations

import contextlib
from types import TracebackType
from typing import Any, Iterator

from repro.telemetry.recorder import Recorder
from repro.telemetry.spans import Span

__all__ = [
    "enabled",
    "active_recorder",
    "recording",
    "span",
    "count",
    "gauge",
    "adopt",
]

#: The process-wide active recorder; ``None`` disables all tracing.
_ACTIVE: Recorder | None = None


class _NullSpan:
    """Shared do-nothing stand-in for :class:`Span` when tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        """Ignore attributes (tracing is disabled)."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


#: The singleton no-op context manager :func:`span` hands out while
#: tracing is disabled — reused, never allocated per call.
NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens/closes one span on the recorder."""

    __slots__ = ("_recorder", "_name", "_attrs", "_span")

    def __init__(
        self, recorder: Recorder, name: str, attrs: dict[str, Any]
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._recorder.begin_span(self._name, self._attrs)
        return self._span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if self._span is not None:
            if exc_type is not None:
                self._span.attrs.setdefault("error", exc_type.__name__)
            self._recorder.end_span(self._span)
        return False


def enabled() -> bool:
    """True when a recorder is active in this process."""
    return _ACTIVE is not None


def active_recorder() -> Recorder | None:
    """The active recorder, or ``None`` when tracing is disabled."""
    return _ACTIVE


@contextlib.contextmanager
def recording(recorder: Recorder | None = None) -> Iterator[Recorder]:
    """Activate a recorder for the duration of the ``with`` block.

    Parameters
    ----------
    recorder:
        The recorder to activate; a fresh one is created when omitted.
        The previously active recorder (usually ``None``) is restored
        on exit, so activations nest safely.

    Yields
    ------
    Recorder
        The active recorder.
    """
    global _ACTIVE
    active = recorder if recorder is not None else Recorder()
    previous = _ACTIVE
    _ACTIVE = active
    try:
        yield active
    finally:
        _ACTIVE = previous


def span(name: str, **attrs: Any) -> _SpanContext | _NullSpan:
    """A context manager timing ``name`` with ``attrs`` annotations.

    Returns the shared no-op singleton when tracing is disabled; the
    ``with`` body always receives an object supporting ``.set(**kw)``.
    """
    recorder = _ACTIVE
    if recorder is None:
        return NULL_SPAN
    return _SpanContext(recorder, name, attrs)


def count(name: str, value: float = 1) -> None:
    """Increment a counter on the active recorder (no-op when disabled)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active recorder (no-op when disabled)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.gauge(name, value)


def adopt(fragment: dict[str, Any] | None) -> None:
    """Merge a worker-exported trace fragment (no-op when disabled)."""
    recorder = _ACTIVE
    if recorder is not None and fragment is not None:
        recorder.adopt(fragment)

