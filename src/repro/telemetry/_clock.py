"""Sanctioned clock shims for the run-health layer.

The ``wall-clock`` static-analysis rule (``repro check``) covers the
sampler, watch, and diff modules: like the numerical kernels,
they may not read clocks directly, because a stray ``time.time()``
there is exactly how timestamps leak into payloads and cache keys.  Instead, every clock
read in the run-health layer flows through the two shims below, so the
full set of clock touch points stays auditable in one ten-line module.

The shims are intentionally trivial — the point is *where* the reads
live, not what they do.
"""

from __future__ import annotations

import time

__all__ = ["wall_now", "mono_now"]


def wall_now() -> float:
    """The wall clock (``time.time()``): comparable across processes.

    Use for snapshot timestamps and anything serialized next to
    ``start_unix`` span anchors.
    """
    return time.time()


def mono_now() -> float:
    """The monotonic clock (``time.perf_counter()``): immune to steps.

    Use for interval and rate arithmetic (sampling cadence, jobs/sec,
    ETA) that must never go backwards.
    """
    return time.perf_counter()
