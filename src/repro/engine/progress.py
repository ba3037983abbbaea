"""Progress hooks: throughput and ETA reporting for engine runs.

The engine calls a :class:`ProgressReporter` at three points — run
start, each completed job (cache hits included), and run end.  The base
class is all no-ops, so reporters override only what they need;
:class:`ThroughputReporter` is the built-in implementation the CLI
attaches when stderr is a terminal.
"""

from __future__ import annotations

import sys
import time
from typing import Any, TextIO

from repro.engine.jobs import JobResult

__all__ = ["ProgressReporter", "ThroughputReporter", "TraceReporter"]


class ProgressReporter:
    """No-op base reporter; subclass and override the hooks you need."""

    def on_start(self, total: int) -> None:
        """A run of ``total`` jobs is beginning."""

    def on_result(self, result: JobResult, completed: int, total: int) -> None:
        """One job finished (or was served from the cache)."""

    def on_finish(self, elapsed: float, completed: int, cached: int) -> None:
        """The run ended; ``cached`` of ``completed`` jobs were skipped."""


class ThroughputReporter(ProgressReporter):
    """Writes ``done/total``, jobs/sec, and ETA lines to a stream.

    Parameters
    ----------
    stream:
        Output target (default ``sys.stderr``).
    min_interval:
        Minimum seconds between progress lines, so tight loops of cache
        hits don't flood the terminal.  The first and last jobs always
        report.
    """

    def __init__(
        self, stream: TextIO | None = None, min_interval: float = 0.5
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = float(min_interval)
        self._started_at = 0.0
        self._last_emit = 0.0
        self._cached = 0

    def on_start(self, total: int) -> None:
        self._started_at = time.perf_counter()
        self._last_emit = 0.0
        self._cached = 0

    def on_result(self, result: JobResult, completed: int, total: int) -> None:
        if result.cached:
            self._cached += 1
        now = time.perf_counter()
        if completed < total and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        elapsed = max(now - self._started_at, 1e-9)
        rate = completed / elapsed
        remaining = total - completed
        eta = remaining / rate if rate > 0 else float("inf")
        self.stream.write(
            f"\r[engine] {completed}/{total} jobs "
            f"({self._cached} cached) | {rate:.1f} jobs/s | "
            f"eta {eta:.0f}s   "
        )
        self.stream.flush()

    def on_finish(self, elapsed: float, completed: int, cached: int) -> None:
        if completed:
            self.stream.write(
                f"\r[engine] {completed} jobs in {elapsed:.1f}s "
                f"({cached} from cache)" + " " * 16 + "\n"
            )
            self.stream.flush()


class TraceReporter(ProgressReporter):
    """Collects the per-job timing rows a run manifest is built from.

    The telemetry sibling of :class:`ThroughputReporter`: instead of
    printing, it records one row per completed job — cache key,
    duration, cache provenance, completion order — for
    :func:`repro.telemetry.manifest.build_manifest` to join onto the
    spec's job table.  An optional ``inner`` reporter receives every
    hook unchanged, so tracing composes with terminal progress output.

    Parameters
    ----------
    inner:
        Reporter to forward all hooks to (e.g. a
        :class:`ThroughputReporter`), or ``None``.
    """

    def __init__(self, inner: ProgressReporter | None = None) -> None:
        self.inner = inner
        self.rows: list[dict[str, Any]] = []
        self.total = 0
        self.elapsed: float | None = None
        self.cached = 0

    def on_start(self, total: int) -> None:
        self.total = total
        self.rows = []
        self.elapsed = None
        self.cached = 0
        if self.inner is not None:
            self.inner.on_start(total)

    def on_result(self, result: JobResult, completed: int, total: int) -> None:
        row: dict[str, Any] = {
            "key": result.key,
            "duration": float(result.duration),
            "cached": bool(result.cached),
            "order": completed,
        }
        self.rows.append(row)
        if self.inner is not None:
            self.inner.on_result(result, completed, total)

    def on_finish(self, elapsed: float, completed: int, cached: int) -> None:
        self.elapsed = float(elapsed)
        self.cached = cached
        if self.inner is not None:
            self.inner.on_finish(elapsed, completed, cached)
