"""Worker resource sampling: per-process RSS and CPU.

A :class:`ResourceSampler` watches a run *while it executes*: a
background thread periodically reads ``/proc/<pid>/statm`` and
``/proc/<pid>/stat`` for the parent process and every announced engine
worker, and publishes everything as ``resource.*`` gauges on the run's
:class:`~repro.telemetry.recorder.Recorder` — so the metrics exporter
streams them and a ``--trace`` document archives the peaks.

Attribution: the executor announces its worker PIDs through
:func:`announce_workers`; each worker's peak RSS and cumulative CPU land
under ``resource.worker.<pid>.*`` gauges, and every ``engine.job`` span
already carries a ``worker`` PID attribute — joining the two tells you
which jobs a memory spike belongs to.

Platform contract: sampling reads the Linux ``/proc`` filesystem.  On
platforms without it, :func:`sampling_supported` is ``False`` and
:meth:`ResourceSampler.start` is a documented **no-op** — the sampler
object exists, ``enabled`` stays ``False``, and no gauges are written.
All clock reads go through :mod:`repro.telemetry._clock` (the
``wall-clock`` check rule covers this module).
"""

from __future__ import annotations

import os
import pathlib
import threading

from repro.exceptions import ValidationError
from repro.telemetry.recorder import Recorder

__all__ = [
    "ResourceSampler",
    "announce_workers",
    "announced_workers",
    "clear_workers",
    "read_process",
    "sampling_supported",
]

#: Where Linux exposes per-process accounting.
_PROC = pathlib.Path("/proc")


def _sysconf(name: str, default: int) -> int:
    """``os.sysconf`` with a fallback for platforms lacking the key."""
    try:
        value = os.sysconf(name)
    except (AttributeError, OSError, ValueError):
        return default
    return int(value) if value > 0 else default


#: Bytes per page (RSS in ``statm`` is counted in pages).
_PAGE_BYTES = _sysconf("SC_PAGE_SIZE", 4096)

#: Clock ticks per second (CPU time in ``stat`` is counted in ticks).
_CLK_TCK = _sysconf("SC_CLK_TCK", 100)


# ----------------------------------------------------------------------
# worker announcement (the executor -> sampler PID hook)

_WORKERS_LOCK = threading.Lock()
_WORKERS: set[int] = set()


def announce_workers(pids: list[int] | set[int] | tuple[int, ...]) -> None:
    """Record engine worker PIDs for any active sampler to watch.

    Called by the executor right after its pool's workers spawn.  Announcing is unconditional and nearly free (a set update
    under a lock); when no sampler is running the set is simply never
    read.  PIDs accumulate for the life of the process — a sampler
    skips the ones whose ``/proc`` entries have disappeared.
    """
    with _WORKERS_LOCK:
        _WORKERS.update(int(pid) for pid in pids)


def announced_workers() -> set[int]:
    """The PIDs announced so far (a copy)."""
    with _WORKERS_LOCK:
        return set(_WORKERS)


def clear_workers() -> None:
    """Forget all announced PIDs (test isolation hook)."""
    with _WORKERS_LOCK:
        _WORKERS.clear()


# ----------------------------------------------------------------------
# one-shot /proc readers

def sampling_supported() -> bool:
    """True when the ``/proc`` files this module reads exist (Linux)."""
    return (_PROC / "self" / "statm").is_file()


def read_process(pid: int) -> dict[str, float] | None:
    """Resident-set bytes and cumulative CPU seconds of one process.

    Returns ``None`` when the process is gone or ``/proc`` is absent —
    callers treat that as "stop watching this PID", never as an error.
    """
    try:
        statm = (_PROC / str(pid) / "statm").read_text().split()
        stat = (_PROC / str(pid) / "stat").read_text()
    except (OSError, UnicodeDecodeError):
        return None
    try:
        rss_bytes = float(int(statm[1]) * _PAGE_BYTES)
        # The comm field may contain spaces/parentheses; everything
        # after the *last* ')' is fixed-position: state is field 3,
        # utime field 14, stime field 15 (1-indexed in proc(5)).
        rest = stat.rsplit(")", 1)[1].split()
        cpu_seconds = (int(rest[11]) + int(rest[12])) / _CLK_TCK
    except (IndexError, ValueError):
        return None
    return {"rss_bytes": rss_bytes, "cpu_seconds": cpu_seconds}


# ----------------------------------------------------------------------
# the sampler

class ResourceSampler:
    """Background ``/proc`` sampler feeding ``resource.*`` gauges.

    Parameters
    ----------
    recorder:
        The recorder gauges are written to (the same one the run's
        trace and metrics exporter read).
    interval:
        Seconds between samples (default 0.2).

    Gauges written per sample
    -------------------------
    ``resource.rss_bytes`` / ``resource.rss_peak_bytes``
        Parent-process resident set, current and run peak.
    ``resource.cpu_seconds``
        Parent-process cumulative CPU (user+system).
    ``resource.workers``
        Announced worker PIDs still alive.
    ``resource.workers.rss_bytes`` / ``resource.workers.rss_peak_bytes``
        Sum of live workers' RSS, and the largest single-worker peak.
    ``resource.workers.cpu_seconds``
        Sum of the last-known CPU seconds across workers.
    ``resource.worker.<pid>.rss_peak_bytes`` / ``...cpu_seconds``
        Per-worker attribution keys, joinable against the ``worker``
        attribute on ``engine.job`` spans.

    A ``resource.samples`` counter tracks how many samples were taken.
    """

    def __init__(self, recorder: Recorder, *, interval: float = 0.2) -> None:
        if not isinstance(interval, (int, float)) or interval <= 0:
            raise ValidationError(
                f"sampler interval must be a positive number, got {interval!r}"
            )
        self.recorder = recorder
        self.interval = float(interval)
        self.enabled = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._pid = os.getpid()
        self._rss_peak = 0.0
        self._worker_state: dict[int, dict[str, float]] = {}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Start the sampling thread (no-op off-Linux; chainable)."""
        if not sampling_supported():
            return self  # documented no-op fallback: enabled stays False
        if self._thread is not None:
            raise ValidationError("sampler is already running")
        self.enabled = True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (idempotent).

        The final sample guarantees that even a run shorter than one
        interval records its resource gauges.
        """
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        if self.enabled:
            self.sample_once()
        self.enabled = False

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    # -- sampling ------------------------------------------------------

    def worker_peaks(self) -> dict[int, dict[str, float]]:
        """Per-worker ``{"rss_peak_bytes", "cpu_seconds"}`` (a copy)."""
        return {pid: dict(state) for pid, state in self._worker_state.items()}

    def sample_once(self) -> None:
        """Take one sample and publish the gauges (also used one-shot)."""
        gauge = self.recorder.gauge
        parent = read_process(self._pid)
        if parent is not None:
            self._rss_peak = max(self._rss_peak, parent["rss_bytes"])
            gauge("resource.rss_bytes", parent["rss_bytes"])
            gauge("resource.rss_peak_bytes", self._rss_peak)
            gauge("resource.cpu_seconds", parent["cpu_seconds"])

        live = 0
        rss_sum = 0.0
        for pid in sorted(announced_workers()):
            reading = read_process(pid)
            state = self._worker_state.setdefault(
                pid, {"rss_peak_bytes": 0.0, "cpu_seconds": 0.0}
            )
            if reading is None:
                continue  # dead worker: keep its recorded peaks
            live += 1
            rss_sum += reading["rss_bytes"]
            state["rss_peak_bytes"] = max(
                state["rss_peak_bytes"], reading["rss_bytes"]
            )
            state["cpu_seconds"] = reading["cpu_seconds"]
        if self._worker_state:
            gauge("resource.workers", float(live))
            gauge("resource.workers.rss_bytes", rss_sum)
            gauge(
                "resource.workers.rss_peak_bytes",
                max(s["rss_peak_bytes"] for s in self._worker_state.values()),
            )
            gauge(
                "resource.workers.cpu_seconds",
                sum(s["cpu_seconds"] for s in self._worker_state.values()),
            )
            for pid, state in self._worker_state.items():
                gauge(
                    f"resource.worker.{pid}.rss_peak_bytes",
                    state["rss_peak_bytes"],
                )
                gauge(f"resource.worker.{pid}.cpu_seconds", state["cpu_seconds"])

        self.recorder.count("resource.samples")

    def __repr__(self) -> str:
        return (
            f"ResourceSampler(interval={self.interval}, "
            f"enabled={self.enabled})"
        )
