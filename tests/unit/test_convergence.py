"""Unit tests for iteration-level convergence telemetry.

Covers the :class:`~repro.telemetry.convergence.IterationTracker`
payload contract, the null fast path, heartbeat metrics, the sentinel
round-trip for non-finite values, bit-identity of kernel numerics with
tracing on vs. off, :class:`~repro.exceptions.ConvergenceError`
diagnostics, and the forward-compatibility warnings the schema
validator emits for unknown payload versions.
"""

import json
import math

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.linalg.psd import cholesky_with_jitter
from repro.randomization.additive import AdditiveNoiseScheme
from repro.reconstruction.kalman import KalmanSmootherReconstructor
from repro.telemetry import trace
from repro.telemetry.convergence import (
    CONDITION_CAP,
    CONVERGENCE_SCHEMA,
    MAX_TRAJECTORY,
    NULL_TRACKER,
    IterationTracker,
    collect_payloads,
    payload_scalar,
    summarize_payloads,
    trajectory_values,
)
from repro.telemetry.recorder import Recorder
from repro.telemetry.schema import validate_trace


class TestNullTracker:
    def test_disabled_facade_hands_out_the_singleton(self):
        assert trace.iterations("em.fit") is NULL_TRACKER
        assert trace.iterations("kalman.filter") is NULL_TRACKER

    def test_null_tracker_is_inert(self):
        assert NULL_TRACKER.enabled is False
        assert NULL_TRACKER.record(objective=1.0, rejected=3) is None
        assert NULL_TRACKER.finish(converged=True) is None

    def test_enabled_facade_hands_out_live_trackers(self):
        with trace.recording():
            tracker = trace.iterations("em.fit")
            assert isinstance(tracker, IterationTracker)
            assert tracker.enabled is True


class TestIterationTracker:
    def test_payload_shape(self):
        tracker = IterationTracker("em.fit")
        tracker.record(objective=-3.0, delta=1.0)
        tracker.record(objective=-2.5, delta=0.5, rejected=2)
        payload = tracker.payload(converged=True)
        assert payload == {
            "schema": CONVERGENCE_SCHEMA,
            "kernel": "em.fit",
            "iterations": 2,
            "rejections": 2,
            "nonfinite": 0,
            "converged": True,
            "final_objective": -2.5,
            "final_delta": 0.5,
            "objective": [-3.0, -2.5],
            "delta": [1.0, 0.5],
        }

    def test_optional_fields_are_omitted(self):
        tracker = IterationTracker("k")
        payload = tracker.payload()
        assert payload == {
            "schema": CONVERGENCE_SCHEMA,
            "kernel": "k",
            "iterations": 0,
            "rejections": 0,
            "nonfinite": 0,
        }

    def test_trajectory_truncates_but_counts_stay_exact(self):
        tracker = IterationTracker("k")
        for step in range(MAX_TRAJECTORY + 40):
            tracker.record(objective=float(step), rejected=1)
        payload = tracker.payload()
        assert payload["iterations"] == MAX_TRAJECTORY + 40
        assert payload["rejections"] == MAX_TRAJECTORY + 40
        assert payload["truncated"] is True
        assert len(payload["objective"]) == MAX_TRAJECTORY
        # The final value keeps tracking past the truncation point.
        assert payload["final_objective"] == float(MAX_TRAJECTORY + 39)

    def test_nonfinite_values_are_counted(self):
        tracker = IterationTracker("k")
        tracker.record(objective=math.nan)
        tracker.record(delta=math.inf)
        tracker.record(objective=1.0, delta=0.5)
        assert tracker.payload()["nonfinite"] == 2

    def test_condition_numbers_are_capped(self):
        tracker = IterationTracker("k")
        tracker.record(condition=math.inf)
        tracker.record(condition=1e308)
        tracker.record(condition=12.5)
        assert tracker.payload()["condition"] == [
            CONDITION_CAP,
            CONDITION_CAP,
            12.5,
        ]

    def test_heartbeat_metrics_reach_the_recorder(self):
        recorder = Recorder()
        tracker = IterationTracker("em.fit", recorder)
        tracker.record(objective=-2.0, delta=0.5, condition=3.0)
        tracker.record(objective=math.nan, rejected=1)
        tracker.finish(converged=False)
        assert recorder.gauges["kernel.em.fit.iterations"] == 2.0
        # The NaN objective never reaches the gauge: the last finite
        # value sticks.
        assert recorder.gauges["kernel.em.fit.objective"] == -2.0
        assert recorder.gauges["kernel.em.fit.condition"] == 3.0
        assert recorder.gauges["kernel.em.fit.converged"] == 0.0
        assert recorder.counters["kernel.em.fit.fits"] == 1
        assert recorder.counters["kernel.em.fit.rejections"] == 1
        assert recorder.counters["kernel.em.fit.nonfinite"] == 1
        assert recorder.counters["kernel.em.fit.nonconverged"] == 1

    def test_one_payload_per_span_extras_drop(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("kernel.fit"):
                first = trace.iterations("a")
                first.record(objective=1.0)
                first.finish(converged=True)
                second = trace.iterations("b")
                second.record(objective=2.0)
                second.finish(converged=True)
        document = recorder.to_document()
        payloads = [
            found
            for span in document["spans"]
            for found in collect_payloads(span)
        ]
        assert [p["kernel"] for p in payloads] == ["a"]
        assert recorder.counters["telemetry.convergence.dropped"] == 1


class TestSentinelRoundTrip:
    def test_nan_objective_survives_serialization(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("kernel.fit"):
                tracker = trace.iterations("k")
                tracker.record(objective=math.nan, delta=math.inf)
                tracker.finish(converged=False)
        document = recorder.to_document()
        # The writer contract: documents serialize with allow_nan=False.
        text = json.dumps(document, allow_nan=False)
        restored = json.loads(text)
        (payload,) = [
            found
            for span in restored["spans"]
            for found in collect_payloads(span)
        ]
        assert payload["final_objective"] == "__nan__"
        final = payload_scalar(payload, "final_objective")
        assert math.isnan(final)
        assert payload_scalar(payload, "final_delta") == math.inf
        assert math.isnan(trajectory_values(payload, "objective")[0])
        assert trajectory_values(payload, "delta") == [math.inf]

    def test_payload_scalar_rejects_foreign_types(self):
        payload = {"final_objective": True, "final_delta": "__other__"}
        assert payload_scalar(payload, "final_objective") is None
        assert payload_scalar(payload, "final_delta") is None
        assert payload_scalar(payload, "absent") is None

    def test_trajectory_values_skip_unrecognized_entries(self):
        payload = {"objective": [1.0, "__nan__", "future", None, 2]}
        values = trajectory_values(payload, "objective")
        assert values[0] == 1.0
        assert math.isnan(values[1])
        assert values[2] == 2.0
        assert trajectory_values({"objective": "not-a-list"}, "objective") == []


class TestCollectAndSummarize:
    def test_collects_depth_first_and_ignores_foreign_shapes(self):
        span = {
            "attrs": {"convergence": {"schema": CONVERGENCE_SCHEMA, "kernel": "a"}},
            "children": [
                {"attrs": {"convergence": {"schema": "other/v1"}}},
                {
                    "attrs": {},
                    "children": [
                        {
                            "attrs": {
                                "convergence": {
                                    "schema": "repro-convergence/v9",
                                    "kernel": "b",
                                }
                            }
                        }
                    ],
                },
            ],
        }
        assert [p["kernel"] for p in collect_payloads(span)] == ["a", "b"]
        assert collect_payloads(None) == []
        assert collect_payloads({"attrs": "bogus"}) == []

    def test_summarize_folds_per_kernel(self):
        payloads = [
            {"kernel": "em.fit", "iterations": 9, "rejections": 0,
             "nonfinite": 0, "converged": True},
            {"kernel": "em.fit", "iterations": 3, "rejections": 1,
             "nonfinite": 2, "converged": False},
            {"kernel": "kalman.filter", "iterations": 100},
        ]
        assert summarize_payloads(payloads) == {
            "em.fit": {
                "fits": 2,
                "iterations": 12,
                "rejections": 1,
                "nonfinite": 2,
                "nonconverged": 1,
            },
            "kalman.filter": {
                "fits": 1,
                "iterations": 100,
                "rejections": 0,
                "nonfinite": 0,
                "nonconverged": 0,
            },
        }

    def test_summarize_ignores_malformed_counts(self):
        payloads = [{"kernel": "k", "iterations": "many", "nonfinite": True}]
        assert summarize_payloads(payloads)["k"]["iterations"] == 0
        assert summarize_payloads(payloads)["k"]["nonfinite"] == 0


class TestBitIdentityTracedVsUntraced:
    """Tracing must observe the numerics, never perturb them."""

    def test_kalman(self):
        rng = np.random.default_rng(3)
        series = np.cumsum(rng.normal(size=(80, 2)), axis=0) * 0.1
        disguised = AdditiveNoiseScheme(std=1.0).disguise(series, rng=4)
        attack = KalmanSmootherReconstructor()
        plain = attack.reconstruct(disguised).estimate
        with trace.recording():
            traced = attack.reconstruct(disguised).estimate
        np.testing.assert_array_equal(plain, traced)

    def test_cholesky_with_jitter(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 6))
        nearly = base @ base.T - 1e-9 * np.eye(6)
        plain = cholesky_with_jitter(nearly)
        with trace.recording():
            traced = cholesky_with_jitter(nearly)
        np.testing.assert_array_equal(plain, traced)


class TestKernelPayloads:
    def test_cholesky_attaches_a_valid_payload(self):
        # Rank one: the plain factorization fails, and a jittered
        # retry succeeds.
        recorder = Recorder()
        with trace.recording(recorder):
            cholesky_with_jitter(np.ones((4, 4)))
        document = recorder.to_document()
        validate_trace(document)
        (payload,) = [
            found
            for span in document["spans"]
            for found in collect_payloads(span)
        ]
        assert payload["kernel"] == "linalg.cholesky"
        assert payload["converged"] is True
        assert payload["iterations"] >= 2
        assert payload["rejections"] == payload["iterations"] - 1
        # One applied-jitter delta per attempt, starting from none.
        assert len(payload["delta"]) == payload["iterations"]
        assert payload["delta"][0] == 0.0
        assert payload["delta"] == sorted(payload["delta"])
        assert "objective" not in payload

    def test_kalman_records_condition_numbers(self):
        rng = np.random.default_rng(3)
        series = np.cumsum(rng.normal(size=(60, 2)), axis=0) * 0.1
        disguised = AdditiveNoiseScheme(std=1.0).disguise(series, rng=4)
        recorder = Recorder()
        with trace.recording(recorder):
            KalmanSmootherReconstructor().reconstruct(disguised)
        document = recorder.to_document()
        validate_trace(document)
        payloads = [
            found
            for span in document["spans"]
            for found in collect_payloads(span)
        ]
        kalman = [p for p in payloads if p["kernel"] == "kalman.filter"]
        assert len(kalman) == 1
        assert kalman[0]["iterations"] == 60
        assert len(kalman[0]["condition"]) == 60
        assert all(c >= 1.0 for c in kalman[0]["condition"])
        assert "converged" not in kalman[0]  # fixed-sweep filter


class TestConvergenceErrorDiagnostics:
    def test_attributes_default_to_none(self):
        error = ConvergenceError("gave up")
        assert error.iterations is None
        assert error.final_objective is None
        assert error.last_delta is None
        assert error.trajectory_tail is None

    def test_trajectory_tail_is_a_float_tuple(self):
        error = ConvergenceError(
            "gave up", 7, final_objective=-2, last_delta=1,
            trajectory_tail=[-3, -2],
        )
        assert error.trajectory_tail == (-3.0, -2.0)
        assert isinstance(error.final_objective, float)


class TestSchemaForwardCompat:
    def _document(self, **attrs):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("kernel.fit") as open_span:
                open_span.attrs.update(attrs)
        return recorder.to_document()

    def test_unknown_trace_version_warns_instead_of_failing(self):
        document = self._document()
        document["schema"] = "repro-trace/v99"
        warnings = []
        validate_trace(document, warnings=warnings)
        assert len(warnings) == 1
        assert warnings[0].startswith("unknown-schema-version")

    def test_unknown_convergence_version_warns(self):
        document = self._document(
            convergence={"schema": "repro-convergence/v99", "kernel": "k"}
        )
        warnings = []
        validate_trace(document, warnings=warnings)
        assert len(warnings) == 1
        assert warnings[0].startswith("unknown-payload-schema")

    def test_foreign_payload_schema_still_fails(self):
        document = self._document(
            convergence={"schema": "something-else/v1"}
        )
        with pytest.raises(ValidationError, match="schema"):
            validate_trace(document)

    def test_malformed_payload_fields_fail(self):
        document = self._document(
            convergence={
                "schema": CONVERGENCE_SCHEMA,
                "kernel": "k",
                "iterations": -1,
            }
        )
        with pytest.raises(ValidationError, match="iterations"):
            validate_trace(document)

    def test_without_a_sink_warnings_are_silent_but_valid(self):
        document = self._document()
        document["schema"] = "repro-trace/v99"
        validate_trace(document)  # must not raise

    def test_job_convergence_summary_is_validated(self):
        recorder = Recorder()
        manifest = {
            "jobs": [
                {
                    "key": "job-0",
                    "convergence": {"em.fit": {"fits": 1, "iterations": 9}},
                }
            ]
        }
        validate_trace(recorder.to_document(manifest=manifest))
        manifest["jobs"][0]["convergence"]["em.fit"]["fits"] = 1.5
        with pytest.raises(ValidationError, match="count must be an integer"):
            validate_trace(recorder.to_document(manifest=manifest))
