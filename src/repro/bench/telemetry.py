"""Micro-benchmarks pinning the telemetry hooks' overhead budget.

The hot kernels (EM, KDE, MAP-GD) stay permanently instrumented, so the
cost of a *disabled* span hook — one ``trace.enabled()`` predicate and
a shared no-op singleton — must be invisible next to the numerics it
wraps.  Two cases make that budget measurable:

``telemetry.em_disabled.smoke`` / ``telemetry.em_enabled.smoke``
    The same EM fit with tracing off and tracing into a live
    :class:`~repro.telemetry.recorder.Recorder`.  The disabled case is
    byte-for-byte the production path; the ISSUE's <2% ceiling is
    asserted by ``tests/unit/test_telemetry.py`` against the raw hook
    cost, and these cases keep the end-to-end numbers on the record.

``telemetry.span_overhead.smoke``
    10k disabled span entries back to back — the per-call hook cost in
    isolation, for eyeballing how many calls fit inside 2% of any
    kernel's runtime.

``telemetry.convergence.smoke`` / ``telemetry.tracker_overhead.smoke``
    The EM fit with the per-iteration convergence tracker live, and 10k
    disabled tracker hooks in isolation — the convergence layer's
    enabled cost end-to-end and its disabled per-iteration cost.

``telemetry.em_runhealth.smoke``
    The same EM fit under the traced-run harness ``--trace`` opens
    (:func:`~repro.telemetry.stream.traced_run`: a recorder streaming
    to a temp file, plus the resource sampler), bounding the cost of
    the everything-on configuration against the disabled case.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import register_benchmark

__all__ = []  # everything here registers via side effect


def _em_workload():
    from repro.stats.em import UnivariateGaussianMixtureEM

    rng = np.random.default_rng(1105)
    samples = np.concatenate(
        [rng.normal(-2.0, 0.6, 1200), rng.normal(3.0, 1.0, 800)]
    )
    em = UnivariateGaussianMixtureEM(2, max_iter=200)

    def run():
        return em.fit(samples, rng=np.random.default_rng(7))

    return run


@register_benchmark(
    "telemetry.em_disabled.smoke",
    group="telemetry",
    tags=("smoke", "telemetry"),
    params={"n_samples": 2000, "n_components": 2},
)
def bench_em_disabled():
    """EM fit with tracing off — the production fast path.

    ``trace.disabled()`` pins the off state so the case measures the
    same code path whether or not the bench itself runs under
    ``--trace``.
    """
    from repro.telemetry import trace

    workload = _em_workload()

    def run():
        with trace.disabled():
            return workload()

    return run


@register_benchmark(
    "telemetry.em_enabled.smoke",
    group="telemetry",
    tags=("smoke", "telemetry"),
    params={"n_samples": 2000, "n_components": 2},
)
def bench_em_enabled():
    """The same EM fit recorded into a live recorder."""
    from repro.telemetry import Recorder, trace

    workload = _em_workload()

    def run():
        with trace.recording(Recorder()):
            return workload()

    return run


@register_benchmark(
    "telemetry.em_runhealth.smoke",
    group="telemetry",
    tags=("smoke", "telemetry"),
    params={"n_samples": 2000, "n_components": 2},
)
def bench_em_runhealth():
    """The same EM fit under the traced-run harness.

    A recorder streaming to a temp file plus the resource sampler — the
    everything-on configuration ``repro run --trace`` uses.  Comparing
    this case against ``telemetry.em_disabled.smoke`` bounds the traced
    run's end-to-end overhead; the <2% budget of its periodic work is
    asserted per second by ``tests/unit/test_runhealth.py``.
    """
    import pathlib
    import tempfile

    from repro.telemetry import traced_run

    workload = _em_workload()
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-"))

    def run():
        with traced_run(tmp / "trace.jsonl"):
            return workload()

    return run


@register_benchmark(
    "telemetry.convergence.smoke",
    group="telemetry",
    tags=("smoke", "telemetry"),
    params={"n_samples": 2000, "n_components": 2},
)
def bench_convergence():
    """The EM fit with tracing on vs. the convergence layer's budget.

    Same workload as ``telemetry.em_enabled.smoke`` but the recording
    path now also runs the :class:`~repro.telemetry.convergence.
    IterationTracker` every iteration (objective + delta record,
    heartbeat gauges, payload attachment).  Comparing against
    ``telemetry.em_disabled.smoke`` bounds the *combined* span +
    tracker overhead; the <2% ceiling on the disabled path is asserted
    by ``tests/unit/test_telemetry.py``.
    """
    from repro.telemetry import Recorder, trace

    workload = _em_workload()

    def run():
        recorder = Recorder()
        with trace.recording(recorder):
            result = workload()
        return result

    return run


@register_benchmark(
    "telemetry.tracker_overhead.smoke",
    group="telemetry",
    tags=("smoke", "telemetry"),
    params={"calls": 10_000},
)
def bench_tracker_overhead():
    """10k disabled tracker hooks: the per-iteration cost in isolation.

    The null tracker's ``enabled`` probe plus a ``record()`` call is
    what every instrumented kernel iteration pays with tracing off;
    this case keeps that number on the record next to
    ``telemetry.span_overhead.smoke``.
    """
    from repro.telemetry import trace

    def run():
        with trace.disabled():
            tracker = trace.iterations("noop")
            for _ in range(10_000):
                if tracker.enabled:
                    tracker.record(objective=1.0, delta=0.1)

    return run


@register_benchmark(
    "telemetry.span_overhead.smoke",
    group="telemetry",
    tags=("smoke", "telemetry"),
    params={"calls": 10_000},
)
def bench_span_overhead():
    """10k disabled span hooks: the per-call cost in isolation.

    Tracing is force-suppressed inside the workload so the case still
    measures the no-op path (and doesn't flood the trace document)
    when the bench itself runs under ``--trace``.
    """
    from repro.telemetry import trace

    def run():
        with trace.disabled():
            for _ in range(10_000):
                with trace.span("noop"):
                    pass

    return run
