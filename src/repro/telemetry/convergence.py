"""Iteration-level convergence tracking for iterative kernels.

Spans bound a kernel in time; this module opens the box between
``kalman.filter`` start and end.  An :class:`IterationTracker` collects
one record per iteration — objective value (log-likelihood, log-posterior,
CV score), delta norm, damping/step rejections, condition numbers —
and, on :meth:`~IterationTracker.finish`, serializes the trajectory as
a versioned ``repro-convergence/v1`` payload attached to the owning
span's attributes, where the schema validator, the trace viewer's
``convergence:`` section, ``repro trace diff``, and the manifest's
per-job summaries all find it.

The tracker follows the same fast-path discipline as spans: kernels
call :func:`repro.telemetry.trace.iterations`, which returns the
shared no-op :data:`NULL_TRACKER` singleton when tracing is disabled.
:meth:`~IterationTracker.record` takes *named scalar parameters only*
— no ``**kwargs`` — so the disabled path allocates neither dicts nor
lists, and kernels guard any derived statistics (a condition number, a
vectorized max) behind ``tracker.enabled`` so the disabled path never
computes them either.  The combined budget is pinned under 2% of a
Kalman smooth by the overhead-budget tests in
``tests/unit/test_telemetry.py``.

While a fit runs, the tracker also feeds ``kernel.<name>.*`` heartbeat
gauges and counters into the recorder, whose trace stream carries
them in the ``metrics`` lines the ``repro watch`` dashboard tails.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imports for annotations only — this module sits
    # below schema.py in the package's import order and must not pull
    # in recorder (which imports schema) at runtime.
    from repro.telemetry.recorder import Recorder
    from repro.telemetry.spans import Span

__all__ = [
    "CONVERGENCE_SCHEMA",
    "IterationTracker",
    "NULL_TRACKER",
    "collect_payloads",
    "summarize_payloads",
    "payload_scalar",
    "trajectory_values",
]

#: Version tag of the convergence payload format.  Bump on incompatible
#: layout changes; unknown ``repro-convergence/*`` versions downgrade
#: to a named validation *warning* (forward compatibility).
CONVERGENCE_SCHEMA = "repro-convergence/v1"

#: Trajectory points retained per tracker.  Kernels with more
#: iterations than this (a long Kalman series, a pathological ascent)
#: keep counting — iterations, finals, rejections stay exact — but
#: stop appending points and mark the payload ``truncated``.
MAX_TRAJECTORY = 512

#: Condition numbers are capped here so heartbeat gauges stay finite:
#: the trace stream serializes its metrics lines with
#: ``allow_nan=False``.
CONDITION_CAP = 1e300


class _NullTracker:
    """Shared do-nothing tracker handed out while tracing is disabled.

    Mirrors the ``NULL_SPAN`` discipline: one process-wide instance,
    ``__slots__ = ()``, every method a constant-time no-op.  Kernels
    test :attr:`enabled` before computing anything a record would need
    (norms, condition numbers), so the disabled hot path is a single
    attribute read per iteration.
    """

    __slots__ = ()

    #: Always ``False``; kernels guard derived statistics behind this.
    enabled = False

    def record(
        self,
        objective: float | None = None,
        delta: float | None = None,
        condition: float | None = None,
        rejected: int = 0,
    ) -> None:
        """Ignore one iteration record (tracing is disabled)."""
        return None

    def finish(self, converged: bool | None = None) -> None:
        """Ignore the end-of-fit signal (tracing is disabled)."""
        return None


#: The singleton no-op tracker :func:`repro.telemetry.trace.iterations`
#: hands out while tracing is disabled — reused, never allocated.
NULL_TRACKER = _NullTracker()


class IterationTracker:
    """Collects per-iteration convergence records for one kernel fit.

    Parameters
    ----------
    kernel:
        Dotted kernel label, e.g. ``"kalman.filter"`` or
        ``"linalg.cholesky"``; names the payload, the
        ``kernel.<name>.*`` heartbeat gauges, and the viewer's
        per-kernel aggregation.
    recorder:
        The active recorder receiving heartbeat gauges/counters, or
        ``None`` for a detached tracker (payload only).
    span:
        The owning span the finished payload is attached to, or
        ``None`` when no span is open (heartbeats still flow).

    Storage is columnar — parallel lists of floats — so a thousand
    iterations cost three list appends each, not a thousand dicts.
    """

    __slots__ = (
        "kernel",
        "enabled",
        "iterations",
        "rejections",
        "nonfinite",
        "truncated",
        "_recorder",
        "_span",
        "_objective",
        "_delta",
        "_condition",
        "_last_objective",
        "_last_delta",
    )

    def __init__(
        self,
        kernel: str,
        recorder: Recorder | None = None,
        span: Span | None = None,
    ) -> None:
        self.kernel = kernel
        #: Always ``True`` on a live tracker (counterpart of the null
        #: tracker's ``False``); kernels branch on this, not on type.
        self.enabled = True
        self.iterations = 0
        self.rejections = 0
        self.nonfinite = 0
        self.truncated = False
        self._recorder = recorder
        self._span = span
        self._objective: list[float] = []
        self._delta: list[float] = []
        self._condition: list[float] = []
        self._last_objective: float | None = None
        self._last_delta: float | None = None

    # ------------------------------------------------------------------
    # recording

    def record(
        self,
        objective: float | None = None,
        delta: float | None = None,
        condition: float | None = None,
        rejected: int = 0,
    ) -> None:
        """Record one iteration of the kernel.

        Parameters
        ----------
        objective:
            The iteration's objective value (log-likelihood,
            log-posterior, CV score).  Non-finite values are stored
            verbatim in the trajectory (they serialize as the
            ``"__nan__"``/``"__inf__"`` sentinels) and counted in
            :attr:`nonfinite`, but never reach the heartbeat gauges.
        delta:
            Convergence increment — log-likelihood improvement, step
            norm, bracket width; same non-finite handling.
        condition:
            A condition number observed this iteration, capped at
            :data:`CONDITION_CAP` to stay JSON-finite.
        rejected:
            Number of rejected proposals this iteration (step
            halvings, jitter retries).
        """
        self.iterations += 1
        if rejected:
            self.rejections += int(rejected)
        room = self.iterations <= MAX_TRAJECTORY
        if not room and not self.truncated:
            self.truncated = True
        obj: float | None = None
        if objective is not None:
            obj = float(objective)
            if not math.isfinite(obj):
                self.nonfinite += 1
            self._last_objective = obj
            if room:
                self._objective.append(obj)
        inc: float | None = None
        if delta is not None:
            inc = float(delta)
            if not math.isfinite(inc):
                self.nonfinite += 1
            self._last_delta = inc
            if room:
                self._delta.append(inc)
        cond: float | None = None
        if condition is not None:
            cond = float(condition)
            if not math.isfinite(cond) or cond > CONDITION_CAP:
                cond = CONDITION_CAP
            if room:
                self._condition.append(cond)
        recorder = self._recorder
        if recorder is not None:
            prefix = "kernel." + self.kernel
            recorder.gauge(prefix + ".iterations", float(self.iterations))
            if obj is not None and math.isfinite(obj):
                recorder.gauge(prefix + ".objective", obj)
            if inc is not None and math.isfinite(inc):
                recorder.gauge(prefix + ".delta", inc)
            if cond is not None:
                recorder.gauge(prefix + ".condition", cond)

    def finish(
        self, converged: bool | None = None
    ) -> dict[str, Any]:
        """Close the fit: attach the payload to the owning span.

        Parameters
        ----------
        converged:
            Whether the kernel reached its convergence criterion;
            ``None`` when the kernel has no binary notion of success
            (e.g. a fixed-sweep filter).

        Returns
        -------
        dict
            The ``repro-convergence/v1`` payload.  It is attached to
            the owning span's ``attrs["convergence"]`` — unless the
            span already carries one (one tracker per span; extras are
            dropped and counted on ``telemetry.convergence.dropped``)
            — and summarized into ``kernel.<name>.*`` heartbeats.
        """
        payload = self.payload(converged=converged)
        recorder = self._recorder
        if recorder is not None:
            prefix = "kernel." + self.kernel
            recorder.count(prefix + ".fits")
            if self.rejections:
                recorder.count(prefix + ".rejections", self.rejections)
            if self.nonfinite:
                recorder.count(prefix + ".nonfinite", self.nonfinite)
            if converged is not None:
                recorder.gauge(
                    prefix + ".converged", 1.0 if converged else 0.0
                )
                if not converged:
                    recorder.count(prefix + ".nonconverged")
        span = self._span
        if span is not None:
            if "convergence" in span.attrs:
                if recorder is not None:
                    recorder.count("telemetry.convergence.dropped")
            else:
                span.attrs["convergence"] = payload
        return payload

    def payload(
        self, *, converged: bool | None = None
    ) -> dict[str, Any]:
        """The current state as a ``repro-convergence/v1`` payload."""
        payload: dict[str, Any] = {
            "schema": CONVERGENCE_SCHEMA,
            "kernel": self.kernel,
            "iterations": self.iterations,
            "rejections": self.rejections,
            "nonfinite": self.nonfinite,
        }
        if converged is not None:
            payload["converged"] = bool(converged)
        if self.truncated:
            payload["truncated"] = True
        if self._last_objective is not None:
            payload["final_objective"] = self._last_objective
        if self._last_delta is not None:
            payload["final_delta"] = self._last_delta
        if self._objective:
            payload["objective"] = list(self._objective)
        if self._delta:
            payload["delta"] = list(self._delta)
        if self._condition:
            payload["condition"] = list(self._condition)
        return payload

    def __repr__(self) -> str:
        return (
            f"IterationTracker({self.kernel!r}, "
            f"iterations={self.iterations}, "
            f"rejections={self.rejections})"
        )


# ----------------------------------------------------------------------
# payload traversal (serialized span trees)


def collect_payloads(span: Any) -> list[dict[str, Any]]:
    """Every convergence payload in a serialized span (sub)tree.

    Parameters
    ----------
    span:
        A span *dict* as found in a trace document's ``spans`` list or
        a worker fragment's ``span`` entry; anything else yields ``[]``
        (pre-convergence traces therefore collect cleanly to nothing).

    Returns
    -------
    list of dict
        Payloads in depth-first pre-order.  Any ``repro-convergence/*``
        version is collected; consumers that care about the exact
        version check ``payload["schema"]`` themselves.
    """
    found: list[dict[str, Any]] = []
    if not isinstance(span, dict):
        return found
    attrs = span.get("attrs")
    if isinstance(attrs, dict):
        payload = attrs.get("convergence")
        if isinstance(payload, dict) and str(
            payload.get("schema", "")
        ).startswith("repro-convergence/"):
            found.append(payload)
    children = span.get("children")
    if isinstance(children, list):
        for child in children:
            found.extend(collect_payloads(child))
    return found


#: JSON sentinel strings mapped back to the non-finite floats they
#: stand for — the inverse of ``sanitize_for_json``'s replacement.
_SENTINEL_FLOATS = {
    "__nan__": math.nan,
    "__inf__": math.inf,
    "__-inf__": -math.inf,
}


def _restore_float(value: Any) -> float | None:
    """A payload number as a float, decoding non-finite sentinels."""
    if isinstance(value, str):
        return _SENTINEL_FLOATS.get(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def payload_scalar(payload: dict[str, Any], field: str) -> float | None:
    """A scalar payload field as a float (sentinels decoded), or None.

    Use for ``final_objective`` / ``final_delta``, which a round-tripped
    trace document stores as ``"__nan__"``-style strings when the kernel
    produced a non-finite value.
    """
    return _restore_float(payload.get(field))


def trajectory_values(payload: dict[str, Any], field: str) -> list[float]:
    """A trajectory list as floats, decoding non-finite sentinels.

    Unrecognized entries (a foreign future type) are skipped rather
    than raised on — viewers must render what they can of a payload
    written by a newer build.
    """
    series = payload.get(field)
    if not isinstance(series, list):
        return []
    values: list[float] = []
    for entry in series:
        restored = _restore_float(entry)
        if restored is not None:
            values.append(restored)
    return values


def summarize_payloads(
    payloads: list[dict[str, Any]],
) -> dict[str, dict[str, int]]:
    """Fold payloads into the per-kernel summary manifests record.

    Returns
    -------
    dict
        ``kernel -> {fits, iterations, rejections, nonfinite,
        nonconverged}`` with integer values only — compact enough for
        a manifest job row, rich enough to flag a sick job.
    """
    summary: dict[str, dict[str, int]] = {}
    for payload in payloads:
        if not isinstance(payload, dict):
            continue
        kernel = str(payload.get("kernel", "?"))
        entry = summary.setdefault(
            kernel,
            {
                "fits": 0,
                "iterations": 0,
                "rejections": 0,
                "nonfinite": 0,
                "nonconverged": 0,
            },
        )
        entry["fits"] += 1
        for field in ("iterations", "rejections", "nonfinite"):
            value = payload.get(field)
            if isinstance(value, int) and not isinstance(value, bool):
                entry[field] += value
        if payload.get("converged") is False:
            entry["nonconverged"] += 1
    return summary
