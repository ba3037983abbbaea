"""Unit tests for cross-run trace diffing.

Diff alignment is the load-bearing property: spans must pair up by
cache key across runs regardless of sibling order, deltas must
attribute to self-time, manifest provenance changes must surface field
by field.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.telemetry import Span, diff_traces, render_diff


def _span(name, duration, children=(), **attrs):
    span = Span(name, attrs)
    span.start_unix = 1000.0
    span.duration = float(duration)
    span.children.extend(children)
    return span


def _trace(roots, *, counters=None, manifest=None):
    return {
        "schema": "repro-trace/v2",
        "created_unix": 1000.0,
        "spans": [root.to_dict() for root in roots],
        "counters": counters or {},
        "gauges": {},
        "manifest": manifest,
    }


def _run(job_durations, *, order=None, manifest=None, counters=None):
    """A run span with one keyed engine.job child per entry."""
    jobs = [
        _span("engine.job", duration, key=key, cached=False)
        for key, duration in job_durations.items()
    ]
    if order is not None:
        jobs = [jobs[i] for i in order]
    root = _span("engine.run", sum(j.duration for j in jobs) + 0.01,
                 children=jobs)
    return _trace([root], manifest=manifest, counters=counters)


class TestDiffAlignment:
    def test_same_trace_has_no_deltas(self):
        payload = _run({"a": 0.1, "b": 0.2})
        diff = diff_traces(payload, payload)
        assert all(row["status"] == "common" for row in diff["spans"])
        assert all(row["delta"] == 0.0 for row in diff["spans"])
        assert diff["counters"] == []
        assert diff["manifest"] == []

    def test_keyed_spans_align_across_sibling_order(self):
        a = _run({"a": 0.1, "b": 0.2, "c": 0.3})
        b = _run({"a": 0.1, "b": 0.5, "c": 0.3}, order=[2, 0, 1])
        diff = diff_traces(a, b)
        assert all(row["status"] == "common" for row in diff["spans"])
        [changed] = [
            row for row in diff["spans"] if row["delta_self"] != 0.0
            and row["name"] == "engine.job"
        ]
        assert "[b]" in changed["path"]
        assert changed["delta"] == pytest.approx(0.3)

    def test_added_and_removed_spans(self):
        a = _run({"a": 0.1, "b": 0.2})
        b = _run({"a": 0.1, "c": 0.4})
        diff = diff_traces(a, b)
        by_status = {}
        for row in diff["spans"]:
            by_status.setdefault(row["status"], []).append(row["path"])
        assert any("[b]" in path for path in by_status["removed"])
        assert any("[c]" in path for path in by_status["added"])

    def test_self_time_attribution(self):
        # The child grew by 0.3 but the parent's own work is unchanged:
        # the parent's *duration* delta is 0.3, its *self* delta 0.
        child_a = _span("kernel", 0.1)
        child_b = _span("kernel", 0.4)
        a = _trace([_span("run", 0.5, children=[child_a])])
        b = _trace([_span("run", 0.8, children=[child_b])])
        diff = diff_traces(a, b)
        parent = next(r for r in diff["spans"] if r["name"] == "run")
        kernel = next(r for r in diff["spans"] if r["name"] == "kernel")
        assert parent["delta"] == pytest.approx(0.3)
        assert parent["delta_self"] == pytest.approx(0.0)
        assert kernel["delta_self"] == pytest.approx(0.3)

    def test_cached_flip_is_flagged(self):
        a = _trace([_span("engine.job", 0.2, key="a", cached=False)])
        b = _trace([_span("engine.job", 0.0, key="a", cached=True)])
        diff = diff_traces(a, b)
        [row] = diff["spans"]
        assert row["cached_changed"] is True

    def test_unkeyed_spans_align_by_occurrence_index(self):
        a = _trace([_span("run", 0.3, children=[
            _span("step", 0.1), _span("step", 0.2)])])
        b = _trace([_span("run", 0.4, children=[
            _span("step", 0.1), _span("step", 0.3)])])
        diff = diff_traces(a, b)
        steps = [r for r in diff["spans"] if r["name"] == "step"]
        assert [r["status"] for r in steps] == ["common", "common"]
        assert steps[0]["delta"] == pytest.approx(0.0)
        assert steps[1]["delta"] == pytest.approx(0.1)

    def test_counter_deltas(self):
        a = _trace([], counters={"cache.hit": 2.0, "same": 1.0})
        b = _trace([], counters={"cache.hit": 5.0, "same": 1.0})
        diff = diff_traces(a, b)
        [row] = diff["counters"]
        assert row["name"] == "cache.hit"
        assert row["delta"] == 3.0

    def test_manifest_delta_fields(self):
        manifest_a = {
            "git_revision": "aaa",
            "spec": {"hash": "h1", "seed": 7, "name": "s"},
            "packages": {"numpy": "1.26.0", "repro": "1.0"},
        }
        manifest_b = {
            "git_revision": "bbb",
            "spec": {"hash": "h2", "seed": 7, "name": "s"},
            "packages": {"numpy": "2.0.0", "repro": "1.0"},
        }
        diff = diff_traces(
            _trace([], manifest=manifest_a),
            _trace([], manifest=manifest_b),
        )
        changed = {c["field"]: (c["a"], c["b"]) for c in diff["manifest"]}
        assert changed["git_revision"] == ("aaa", "bbb")
        assert changed["spec.hash"] == ("h1", "h2")
        assert changed["packages.numpy"] == ("1.26.0", "2.0.0")
        assert "spec.seed" not in changed

    def test_rejects_non_dict(self):
        with pytest.raises(ValidationError, match="trace A"):
            diff_traces([], _trace([]))


class TestRenderDiff:
    def test_report_sections(self):
        a = _run({"a": 0.1, "b": 0.2},
                 manifest={"git_revision": "aaa"})
        b = _run({"a": 0.1, "b": 0.5, "c": 0.3},
                 manifest={"git_revision": "bbb"})
        text = render_diff(diff_traces(a, b))
        assert "trace diff (B - A)" in text
        assert "total delta:" in text
        assert "manifest changes:" in text
        assert "'aaa' -> 'bbb'" in text
        assert "only in B: 1 span(s)" in text

    def test_identical_traces_report_no_differences(self):
        payload = _run({"a": 0.1})
        text = render_diff(diff_traces(payload, payload))
        assert "(no differences)" in text
