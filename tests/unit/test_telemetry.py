"""Unit tests for the telemetry subsystem.

Covers the span primitives, the thread-safe recorder (including
cross-process fragment adoption), the ``trace`` facade's disabled fast
path, the ``repro-trace/v1`` schema validator, run manifests, the
ASCII viewer, and the <2% disabled-hook overhead budget.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.telemetry import (
    MANIFEST_KIND,
    Recorder,
    Span,
    TRACE_SCHEMA,
    build_manifest,
    format_seconds,
    render_trace,
    sparkline,
    spec_fingerprint,
    trace,
    validate_trace,
    write_trace,
)


# ----------------------------------------------------------------------
# Span


class TestSpan:
    def test_begin_finish_records_timing(self):
        span = Span("work").begin()
        time.sleep(0.002)
        span.finish()
        assert span.duration >= 0.002
        assert span.start_unix > 0
        assert span.end_unix == pytest.approx(
            span.start_unix + span.duration
        )

    def test_set_merges_attributes(self):
        span = Span("work", {"a": 1})
        span.set(b=2).set(a=3)
        assert span.attrs == {"a": 3, "b": 2}

    def test_iter_spans_is_depth_first_preorder(self):
        root = Span("root")
        child = Span("child")
        grandchild = Span("grandchild")
        child.children.append(grandchild)
        root.children.extend([child, Span("sibling")])
        names = [span.name for span in root.iter_spans()]
        assert names == ["root", "child", "grandchild", "sibling"]

    def test_self_time_subtracts_children(self):
        root = Span("root")
        root.duration = 1.0
        child = Span("child")
        child.duration = 0.3
        root.children.append(child)
        assert root.self_time() == pytest.approx(0.7)

    def test_dict_round_trip(self):
        root = Span("root", {"n": 10}).begin()
        child = Span("child").begin()
        child.finish()
        root.children.append(child)
        root.finish()
        restored = Span.from_dict(root.to_dict())
        assert restored.to_dict() == root.to_dict()

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValidationError):
            Span.from_dict({"no": "name"})
        with pytest.raises(ValidationError):
            Span.from_dict("not a dict")


# ----------------------------------------------------------------------
# Recorder


class TestRecorder:
    def test_nesting_builds_a_tree(self):
        recorder = Recorder()
        outer = recorder.begin_span("outer")
        inner = recorder.begin_span("inner")
        recorder.end_span(inner)
        recorder.end_span(outer)
        assert [span.name for span in recorder.roots] == ["outer"]
        assert [span.name for span in outer.children] == ["inner"]

    def test_unbalanced_end_raises(self):
        recorder = Recorder()
        outer = recorder.begin_span("outer")
        recorder.begin_span("inner")
        with pytest.raises(ValidationError):
            recorder.end_span(outer)

    def test_threads_get_separate_roots(self):
        recorder = Recorder()

        def worker():
            span = recorder.begin_span("thread-span")
            recorder.end_span(span)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder.roots) == 4

    def test_counters_and_gauges(self):
        recorder = Recorder()
        recorder.count("hits")
        recorder.count("hits", 2)
        recorder.gauge("depth", 3.0)
        recorder.gauge("depth", 1.0)
        assert recorder.counters == {"hits": 3}
        assert recorder.gauges == {"depth": 1.0}

    def test_export_fragment_single_root(self):
        recorder = Recorder()
        span = recorder.begin_span("job")
        recorder.end_span(span)
        recorder.count("cache.miss")
        fragment = recorder.export_fragment()
        assert fragment["span"]["name"] == "job"
        assert fragment["counters"] == {"cache.miss": 1}

    def test_export_fragment_multi_root_synthesizes_container(self):
        recorder = Recorder()
        for _ in range(2):
            span = recorder.begin_span("job")
            recorder.end_span(span)
        fragment = recorder.export_fragment()
        assert fragment["span"]["name"] == "worker"
        assert len(fragment["span"]["children"]) == 2

    def test_adopt_grafts_under_current_span(self):
        worker = Recorder()
        span = worker.begin_span("remote-job")
        worker.end_span(span)
        worker.count("pipeline.records", 100)

        parent = Recorder()
        run = parent.begin_span("run")
        parent.adopt(worker.export_fragment())
        parent.end_span(run)
        assert [child.name for child in run.children] == ["remote-job"]
        assert parent.counters == {"pipeline.records": 100}

    def test_adopt_without_open_span_becomes_root(self):
        worker = Recorder()
        span = worker.begin_span("remote-job")
        worker.end_span(span)
        parent = Recorder()
        parent.adopt(worker.export_fragment())
        assert [root.name for root in parent.roots] == ["remote-job"]

    def test_adopt_rejects_non_dict(self):
        with pytest.raises(ValidationError):
            Recorder().adopt([1, 2])

    def test_to_document_is_valid(self):
        recorder = Recorder()
        span = recorder.begin_span("run", {"n": 3})
        recorder.end_span(span)
        recorder.count("hits")
        recorder.gauge("load", 0.5)
        document = recorder.to_document()
        assert document["schema"] == TRACE_SCHEMA
        validate_trace(document)


# ----------------------------------------------------------------------
# trace facade


class TestTraceFacade:
    def test_disabled_by_default(self):
        assert not trace.enabled()
        assert trace.active_recorder() is None
        assert trace.current_span() is None
        # No-ops must not raise.
        trace.count("x")
        trace.gauge("y", 1.0)
        trace.adopt(None)

    def test_disabled_span_is_shared_singleton(self):
        first = trace.span("a", n=1)
        second = trace.span("b")
        assert first is second  # no per-call allocation when off
        with first as span:
            span.set(anything=1)  # accepted and ignored

    def test_recording_activates_and_restores(self):
        recorder = Recorder()
        with trace.recording(recorder) as active:
            assert active is recorder
            assert trace.enabled()
            with trace.span("step", n=2) as span:
                span.set(extra=True)
        assert not trace.enabled()
        assert recorder.roots[0].attrs == {"n": 2, "extra": True}

    def test_recording_creates_recorder_when_omitted(self):
        with trace.recording() as recorder:
            with trace.span("x"):
                pass
        assert [root.name for root in recorder.roots] == ["x"]

    def test_recording_nests(self):
        outer, inner = Recorder(), Recorder()
        with trace.recording(outer):
            with trace.recording(inner):
                with trace.span("deep"):
                    pass
            assert trace.active_recorder() is outer
        assert not outer.roots
        assert [root.name for root in inner.roots] == ["deep"]

    def test_disabled_context_suppresses_recording(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.disabled():
                assert not trace.enabled()
                with trace.span("hidden"):
                    pass
            assert trace.enabled()
        assert not recorder.roots

    def test_exception_annotates_span_and_propagates(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with trace.recording(recorder):
                with trace.span("boom"):
                    raise RuntimeError("nope")
        span = recorder.roots[0]
        assert span.attrs["error"] == "RuntimeError"
        assert span.duration >= 0.0


# ----------------------------------------------------------------------
# schema


def _minimal_document():
    return {
        "schema": TRACE_SCHEMA,
        "created_unix": 1.0,
        "spans": [
            {
                "name": "run",
                "start_unix": 1.0,
                "duration": 0.5,
                "attrs": {"n": 1},
                "children": [],
            }
        ],
        "counters": {"hits": 2},
        "gauges": {},
        "manifest": None,
    }


class TestSchema:
    def test_accepts_minimal_document(self):
        validate_trace(_minimal_document())

    def test_rejects_foreign_schema_tag(self):
        document = _minimal_document()
        document["schema"] = "something-else/v1"
        with pytest.raises(ValidationError, match="schema"):
            validate_trace(document)

    def test_unknown_family_version_downgrades_to_warning(self):
        # Forward compatibility: a future repro-trace/* version is a
        # named warning, not a failure (structural checks are skipped).
        document = _minimal_document()
        document["schema"] = "repro-trace/v0"
        warnings = []
        validate_trace(document, warnings=warnings)
        assert len(warnings) == 1
        assert warnings[0].startswith("unknown-schema-version")

    def test_rejects_missing_top_level_key(self):
        document = _minimal_document()
        del document["counters"]
        with pytest.raises(ValidationError, match="counters"):
            validate_trace(document)

    def test_rejects_unknown_span_field(self):
        document = _minimal_document()
        document["spans"][0]["color"] = "red"
        with pytest.raises(ValidationError, match="color"):
            validate_trace(document)

    def test_rejects_bad_span_types(self):
        document = _minimal_document()
        document["spans"][0]["duration"] = "fast"
        with pytest.raises(ValidationError, match="duration"):
            validate_trace(document)

    def test_collects_every_problem(self):
        document = _minimal_document()
        document["spans"][0]["duration"] = "fast"
        document["counters"] = {"hits": "two"}
        with pytest.raises(ValidationError) as excinfo:
            validate_trace(document)
        message = str(excinfo.value)
        assert "duration" in message and "hits" in message

    def test_rejects_bad_manifest_rows(self):
        document = _minimal_document()
        document["manifest"] = {
            "kind": MANIFEST_KIND,
            "jobs": [{"key": 7, "duration": 0.1, "cached": False}],
        }
        with pytest.raises(ValidationError, match="key"):
            validate_trace(document)

    def test_round_trip_through_json(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("outer", n=2):
                with trace.span("inner"):
                    pass
        document = recorder.to_document()
        restored = json.loads(json.dumps(document))
        validate_trace(restored)
        assert restored["spans"] == document["spans"]


# ----------------------------------------------------------------------
# manifest


class TestManifest:
    def _spec(self):
        from repro.api.spec import ExperimentSpec

        return ExperimentSpec(
            name="manifest-test",
            task="repro.api.tasks:attack_point",
            params={
                "dataset": {"kind": "synthetic", "spectrum": [50.0, 10.0]},
                "scheme": {"kind": "additive", "std": 2.0},
                "attacks": {"UDR": {"kind": "udr"}},
                "n_records": 50,
            },
            grid={"scheme.std": [1.0, 2.0]},
            trials=2,
            seed=11,
        )

    def test_fingerprint_is_deterministic_and_content_sensitive(self):
        import dataclasses

        spec = self._spec()
        again = self._spec()
        assert spec_fingerprint(spec) == spec_fingerprint(again)
        other = dataclasses.replace(spec, seed=12)
        assert spec_fingerprint(other) != spec_fingerprint(spec)

    def test_build_manifest_is_deterministic(self):
        spec = self._spec()
        first = build_manifest(spec=spec)
        second = build_manifest(spec=spec)
        assert first == second
        assert first["kind"] == MANIFEST_KIND
        assert first["spec"]["name"] == "manifest-test"
        assert len(first["jobs"]) == 4  # 2 points x 2 trials

    def test_rows_join_by_cache_key(self):
        spec = self._spec()
        jobs = spec.compile_jobs()
        rows = [
            {"key": job.key(), "duration": 0.25, "cached": index % 2 == 0}
            for index, job in enumerate(jobs)
        ]
        manifest = build_manifest(spec=spec, rows=rows)
        assert all("duration" in entry for entry in manifest["jobs"])
        assert [entry["cached"] for entry in manifest["jobs"]] == [
            True,
            False,
            True,
            False,
        ]
        # Seed lineage rides along for every job.
        assert all(
            entry["seed_root"] == 11 and len(entry["seed_path"]) == 2
            for entry in manifest["jobs"]
        )

    def test_rows_without_spec(self):
        manifest = build_manifest(
            rows=[{"key": "bench.case", "duration": 0.5, "cached": False}]
        )
        assert manifest["jobs"] == [
            {"key": "bench.case", "duration": 0.5, "cached": False}
        ]

    def test_manifest_validates_inside_document(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("run"):
                pass
        document = recorder.to_document(manifest=build_manifest(spec=self._spec()))
        validate_trace(document)


# ----------------------------------------------------------------------
# viewer + write_trace


class TestViewer:
    def test_format_seconds_units(self):
        assert format_seconds(2.5) == "2.50s"
        assert format_seconds(0.0421) == "42.1ms"
        assert format_seconds(0.0000071) == "7us"

    def test_render_trace_shows_tree_and_counters(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("engine.run", jobs=1):
                with trace.span(
                    "engine.job", task="demo", cached=False
                ):
                    pass
            trace.count("cache.miss")
        text = render_trace(recorder.to_document())
        assert "engine.run" in text
        assert "engine.job" in text
        assert "cache.miss=1" in text
        assert "self-time by span name" in text

    def test_render_trace_depth_limit(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("alpha"):
                with trace.span("beta"):
                    with trace.span("gamma"):
                        pass
        tree = render_trace(
            recorder.to_document(), max_depth=1
        ).split("self-time")[0]
        assert "beta" in tree
        assert "gamma" not in tree
        assert "hidden" in tree

    def test_write_trace_validates_and_writes(self, tmp_path):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("run"):
                pass
        target = tmp_path / "trace.json"
        written = write_trace(recorder.to_document(), target)
        assert written == target
        validate_trace(json.loads(target.read_text()))

    def test_write_trace_rejects_invalid_document(self, tmp_path):
        target = tmp_path / "trace.json"
        with pytest.raises(ValidationError):
            write_trace({"schema": "bogus"}, target)
        assert not target.exists()


class TestViewerEdgeCases:
    """Degenerate documents the viewer must render without crashing."""

    def test_empty_trace(self):
        recorder = Recorder()
        text = render_trace(recorder.to_document())
        assert "(no spans recorded)" in text

    def test_all_cached_zero_duration_spans(self):
        # A fully-cached rerun: every engine.job is a zero-length
        # provenance marker, so the percentage column divides by a
        # zero total and the slowest-job chart ranks zero-height bars.
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("engine.run", jobs=2) as run:
                for index in range(2):
                    with trace.span(
                        "engine.job",
                        key=f"k{index}",
                        cached=True,
                        original_duration=1.5,
                    ) as job:
                        pass
                    job.duration = 0.0
            run.duration = 0.0
        document = recorder.to_document()
        validate_trace(document)
        text = render_trace(document)
        assert "engine.job" in text
        assert "cached=True" in text

    def test_adopted_fragment_with_missing_parent(self):
        # A worker fragment adopted after its engine.run span already
        # closed (e.g. late-arriving straggler): it becomes an extra
        # root and must render as its own tree.
        recorder = Recorder()
        worker = Recorder()
        with trace.recording(worker):
            with trace.span("engine.job", key="orphan", worker=12345):
                pass
        with trace.recording(recorder):
            with trace.span("engine.run"):
                pass
            recorder.adopt(worker.export_fragment())
        document = recorder.to_document()
        validate_trace(document)
        assert len(document["spans"]) == 2
        text = render_trace(document)
        assert "engine.run" in text
        assert "worker=12345" in text

    def test_format_bytes_units(self):
        from repro.telemetry.viewer import format_bytes

        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 * 1024**2) == "3.0MiB"
        assert format_bytes(1.5 * 1024**3) == "1.5GiB"

    def test_resource_gauges_render_as_section(self):
        recorder = Recorder()
        recorder.gauge("engine.workers", 2.0)
        recorder.gauge("resource.rss_peak_bytes", 64.0 * 1024**2)
        recorder.gauge("resource.cpu_seconds", 1.25)
        recorder.gauge("resource.worker.123.rss_peak_bytes", 32.0 * 1024**2)
        recorder.gauge("resource.worker.123.cpu_seconds", 0.5)
        text = render_trace(recorder.to_document())
        assert "resources:" in text
        assert "64.0MiB" in text
        # The raw byte gauges stay off the generic gauges line.
        gauges_line = next(
            line for line in text.splitlines() if line.startswith("gauges:")
        )
        assert "resource." not in gauges_line
        assert "engine.workers=2" in gauges_line
        # Per-worker table row keyed by PID.
        assert "123" in text
        assert "32.0MiB" in text


# ----------------------------------------------------------------------
# overhead budget


class TestOverheadBudget:
    def test_disabled_hook_within_two_percent_of_em_fit(self):
        """The ISSUE's <2% ceiling, with ~2 orders of magnitude margin.

        An EM fit contains exactly one span hook, so "overhead under
        2%" means per-hook cost < 2% of the fit's runtime.  The hook is
        ~200ns and the fit milliseconds, so this only fails if the
        disabled path regresses catastrophically (e.g. starts
        allocating or serializing).
        """
        from repro.stats.em import UnivariateGaussianMixtureEM

        assert not trace.enabled()

        rng = np.random.default_rng(1105)
        samples = np.concatenate(
            [rng.normal(-2.0, 0.6, 1200), rng.normal(3.0, 1.0, 800)]
        )
        em = UnivariateGaussianMixtureEM(2)
        em.fit(samples, rng=np.random.default_rng(7))  # warmup
        started = time.perf_counter()
        em.fit(samples, rng=np.random.default_rng(7))
        fit_seconds = time.perf_counter() - started

        calls = 10_000
        started = time.perf_counter()
        for _ in range(calls):
            with trace.span("noop"):
                pass
        per_call = (time.perf_counter() - started) / calls

        assert per_call < 0.02 * fit_seconds

    def test_disabled_span_does_not_allocate_contexts(self):
        spans = {id(trace.span("a")) for _ in range(32)}
        assert len(spans) == 1  # always the shared NULL_SPAN singleton

    def test_disabled_tracker_hook_within_two_percent_of_em_fit(self):
        """The convergence layer's share of the <2% disabled budget.

        Every instrumented kernel iteration pays one ``enabled`` probe
        and (when the guard is mis-skipped) one no-op ``record()``;
        both together must stay far inside 2% of an EM fit's runtime.
        Mirrored on the record by ``telemetry.tracker_overhead.smoke``.
        """
        from repro.stats.em import UnivariateGaussianMixtureEM

        assert not trace.enabled()
        tracker = trace.iterations("noop")

        rng = np.random.default_rng(1105)
        samples = np.concatenate(
            [rng.normal(-2.0, 0.6, 1200), rng.normal(3.0, 1.0, 800)]
        )
        em = UnivariateGaussianMixtureEM(2)
        em.fit(samples, rng=np.random.default_rng(7))  # warmup
        started = time.perf_counter()
        em.fit(samples, rng=np.random.default_rng(7))
        fit_seconds = time.perf_counter() - started

        calls = 10_000
        started = time.perf_counter()
        for _ in range(calls):
            if tracker.enabled:
                tracker.record(objective=1.0, delta=0.1)
        per_call = (time.perf_counter() - started) / calls

        # An EM fit records ~once per iteration (tens of iterations),
        # so even 100 hooks must fit inside the 2% ceiling.
        assert per_call * 100 < 0.02 * fit_seconds


# ----------------------------------------------------------------------
# Sparklines and the viewer's convergence section


class TestSparkline:
    def test_empty_series_renders_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_renders_flat(self):
        line = sparkline([2.0, 2.0, 2.0])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotone_series_ends_at_the_top_glyph(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == " "
        assert line[-1] == "%"

    def test_long_series_downsamples_to_width(self):
        assert len(sparkline([float(i) for i in range(100)], width=24)) == 24

    def test_nonfinite_values_render_as_bangs(self):
        line = sparkline([1.0, float("nan"), 2.0])
        assert line[1] == "!"
        assert sparkline([float("nan"), float("inf")]) == "!!"


class TestViewerConvergence:
    def _document_with_payload(self, **overrides):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("em.fit"):
                tracker = trace.iterations("em.fit")
                tracker.record(objective=-3.0, delta=1.0)
                tracker.record(objective=-2.0, delta=0.5)
                tracker.finish(converged=True)
        document = recorder.to_document()
        document["spans"][0]["attrs"]["convergence"].update(overrides)
        return document

    def test_section_renders_per_kernel_rows(self):
        text = render_trace(self._document_with_payload())
        assert "convergence:" in text
        assert "em.fit" in text
        assert "1/1" in text  # converged tally
        assert "-2" in text  # final objective

    def test_pre_convergence_trace_has_no_section(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("engine.run"):
                pass
        text = render_trace(recorder.to_document())
        assert "convergence:" not in text

    def test_zero_iteration_payload_renders(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("kernel.fit"):
                trace.iterations("cold.start").finish()
        text = render_trace(recorder.to_document())
        assert "convergence:" in text
        assert "cold.start" in text
        assert "0/0" in text  # iter med/max for the empty fit

    def test_single_iteration_fit_renders(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("kernel.fit"):
                tracker = trace.iterations("one.shot")
                tracker.record(objective=1.5)
                tracker.finish(converged=True)
        text = render_trace(recorder.to_document())
        assert "one.shot" in text
        assert "1/1" in text

    def test_nan_objective_survives_the_json_round_trip(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("kernel.fit"):
                tracker = trace.iterations("sick.fit")
                tracker.record(objective=float("nan"))
                tracker.finish(converged=False)
        document = json.loads(
            json.dumps(recorder.to_document(), allow_nan=False)
        )
        text = render_trace(document)
        assert "sick.fit" in text
        assert "nan" in text
        assert "!" in text  # non-finite trajectory glyph

    def test_condition_only_payload_gets_a_trajectory(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("kernel.fit"):
                tracker = trace.iterations("linalg.cholesky")
                tracker.record(condition=10.0)
                tracker.record(condition=100.0)
                tracker.finish(converged=True)
        text = render_trace(recorder.to_document())
        row = [
            line for line in text.splitlines() if "linalg.cholesky" in line
        ][0]
        assert not row.rstrip().endswith("-")
