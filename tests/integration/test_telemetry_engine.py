"""Integration tests: tracing across the engine, pipeline, and CLI.

Pins the ISSUE's acceptance behaviors: traced runs produce valid
``repro-trace/v1`` documents whose per-job spans account for the run
wall-clock and distinguish cache hits from computed jobs under both
executors; results stay bit-identical with tracing on; and the CLI
``--trace`` / ``repro trace`` round-trip works end to end.
"""

from __future__ import annotations

import json

from repro.api.spec import ExperimentSpec
from repro.engine import (
    Engine,
    JobSpec,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    TraceReporter,
)
from repro.telemetry import Recorder, build_manifest, trace, validate_trace


def _job_specs(n=4, n_records=80):
    params = {
        "dataset": {"kind": "synthetic", "spectrum": [50.0, 20.0, 5.0]},
        "scheme": {"kind": "additive", "std": 2.0},
        "attacks": {"UDR": {"kind": "udr"}},
        "n_records": n_records,
    }
    return [
        JobSpec(
            task="repro.api.tasks:attack_point",
            params=params,
            seed_root=13,
            seed_path=(0, i),
        )
        for i in range(n)
    ]


def _engine_jobs(document):
    [run] = document["spans"]
    assert run["name"] == "engine.run"
    return [
        span for span in run["children"] if span["name"] == "engine.job"
    ]


def _traced_run(executor, cache=None):
    recorder = Recorder()
    with trace.recording(recorder):
        results = Engine(executor=executor, cache=cache).run(_job_specs())
    document = recorder.to_document()
    validate_trace(document)
    return results, document


class TestTracedEngineRuns:
    def test_serial_jobs_nest_under_run_and_sum_to_wall_clock(self):
        results, document = _traced_run(SerialExecutor())
        jobs = _engine_jobs(document)
        assert len(jobs) == len(results) == 4
        assert all(job["attrs"]["cached"] is False for job in jobs)
        assert all(job["attrs"]["queue_wait"] == 0.0 for job in jobs)
        # Serial: the jobs run inside the engine.run span, so their
        # durations can never exceed it, and they dominate it (the
        # non-job overhead is bookkeeping).
        run = document["spans"][0]
        job_total = sum(job["duration"] for job in jobs)
        assert job_total <= run["duration"] * 1.01
        assert job_total >= run["duration"] * 0.5

    def test_serial_jobs_contain_pipeline_and_kernel_spans(self):
        _, document = _traced_run(SerialExecutor())
        names = set()

        def walk(span):
            names.add(span["name"])
            for child in span["children"]:
                walk(child)

        walk(document["spans"][0])
        assert {"pipeline.run", "pipeline.randomize", "pipeline.attack",
                "pipeline.metrics"} <= names

    def test_figure_job_traces_data_generation(self):
        spec = JobSpec(
            task="repro.experiments.tasks:two_level_trial",
            params={
                "spectrum": [50.0, 20.0, 5.0, 1.0],
                "n_records": 80,
                "noise_std": 2.0,
            },
            seed_root=13,
            seed_path=(0, 0),
        )
        recorder = Recorder()
        with trace.recording(recorder):
            Engine(executor=SerialExecutor()).run([spec])
        document = recorder.to_document()
        validate_trace(document)
        [job] = _engine_jobs(document)
        [generate] = [
            child for child in job["children"]
            if child["name"] == "data.generate"
        ]
        assert generate["attrs"] == {"n": 80, "m": 4}
        assert [child["name"] for child in generate["children"]] == [
            "data.basis", "data.sample",
        ]

    def test_kernel_hooks_emit_spans(self):
        import numpy as np

        from repro.stats.em import UnivariateGaussianMixtureEM
        from repro.stats.kde import GaussianKDE

        rng = np.random.default_rng(3)
        samples = np.concatenate(
            [rng.normal(-1.0, 0.5, 100), rng.normal(2.0, 0.8, 100)]
        )
        recorder = Recorder()
        with trace.recording(recorder):
            GaussianKDE(samples).pdf(np.linspace(-3.0, 4.0, 50))
            UnivariateGaussianMixtureEM(2).fit(samples, rng=rng)
        names = {root.name for root in recorder.roots}
        assert names == {"kde.pdf", "em.fit"}
        by_name = {root.name: root for root in recorder.roots}
        assert by_name["kde.pdf"].attrs == {"n_samples": 200, "n_eval": 50}
        assert by_name["em.fit"].attrs["iterations"] >= 1

    def test_kernel_results_identical_with_tracing_on(self):
        # KDE, EM and data generation: tracing must not touch the numbers.
        import numpy as np

        from repro.stats.em import UnivariateGaussianMixtureEM
        from repro.stats.kde import GaussianKDE

        rng = np.random.default_rng(3)
        samples = np.concatenate(
            [rng.normal(-1.0, 0.5, 100), rng.normal(2.0, 0.8, 100)]
        )
        grid = np.linspace(-3.0, 4.0, 64)
        plain_pdf = GaussianKDE(samples).pdf(grid)
        plain_fit = UnivariateGaussianMixtureEM(2).fit(
            samples, rng=np.random.default_rng(9)
        )
        with trace.recording(Recorder()):
            traced_pdf = GaussianKDE(samples).pdf(grid)
            traced_fit = UnivariateGaussianMixtureEM(2).fit(
                samples, rng=np.random.default_rng(9)
            )
        np.testing.assert_array_equal(traced_pdf, plain_pdf)
        np.testing.assert_array_equal(traced_fit.means, plain_fit.means)
        np.testing.assert_array_equal(traced_fit.weights, plain_fit.weights)

        from repro.data.synthetic import generate_dataset

        spectrum = [50.0, 20.0, 5.0, 1.0]
        plain_data = generate_dataset(spectrum=spectrum, n_records=80, rng=4)
        with trace.recording(Recorder()):
            traced_data = generate_dataset(
                spectrum=spectrum, n_records=80, rng=4
            )
        assert traced_data == plain_data

    def test_parallel_worker_fragments_merge_into_parent(self):
        results, document = _traced_run(ParallelExecutor(workers=2))
        jobs = _engine_jobs(document)
        assert len(jobs) == 4
        for job in jobs:
            assert job["attrs"]["cached"] is False
            assert job["attrs"]["queue_wait"] >= 0.0
            assert isinstance(job["attrs"]["worker"], int)
            # compute is the task body's own timing; the job span also
            # covers task resolution, so it can only be larger.
            assert 0.0 < job["attrs"]["compute"] <= job["duration"] * 1.01
            child_names = {child["name"] for child in job["children"]}
            assert "pipeline.run" in child_names
        # Worker-side counters merged additively into the parent.
        assert document["counters"]["pipeline.records"] == 4 * 80

    def test_cache_hits_are_distinguished_under_both_executors(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, first_doc = _traced_run(ParallelExecutor(workers=2), cache)
        assert first_doc["counters"]["cache.write"] == 4
        assert all(
            not job["attrs"]["cached"] for job in _engine_jobs(first_doc)
        )

        second, second_doc = _traced_run(SerialExecutor(), cache)
        hits = _engine_jobs(second_doc)
        assert all(job["attrs"]["cached"] is True for job in hits)
        assert all("original_duration" in job["attrs"] for job in hits)
        assert second_doc["counters"] == {"cache.hit": 4}
        assert [r.values for r in second] == [r.values for r in first]

    def test_results_bit_identical_with_tracing_on(self):
        plain = Engine(executor=SerialExecutor()).run(_job_specs())
        traced, _ = _traced_run(SerialExecutor())
        assert [r.values for r in traced] == [r.values for r in plain]

    def test_trace_reporter_rows_join_the_run(self):
        recorder = Recorder()
        reporter = TraceReporter()
        specs = _job_specs()
        with trace.recording(recorder):
            Engine(executor=SerialExecutor(), progress=reporter).run(specs)
        assert reporter.total == 4
        assert reporter.elapsed is not None and reporter.cached == 0
        assert {row["key"] for row in reporter.rows} == {
            spec.key() for spec in specs
        }
        manifest = build_manifest(rows=reporter.rows)
        document = recorder.to_document(manifest=manifest)
        validate_trace(document)

    def test_untraced_run_records_nothing(self):
        assert not trace.enabled()
        results = Engine(executor=ParallelExecutor(workers=2)).run(
            _job_specs()
        )
        assert all(result.trace is None for result in results)


class TestSpecRunManifest:
    def test_run_spec_trace_carries_full_lineage(self, tmp_path):
        from repro.api.runner import run_spec

        spec = ExperimentSpec(
            name="traced-sweep",
            task="repro.api.tasks:attack_point",
            params={
                "dataset": {"kind": "synthetic", "spectrum": [50.0, 10.0]},
                "scheme": {"kind": "additive", "std": 2.0},
                "attacks": {"UDR": {"kind": "udr"}},
                "n_records": 60,
            },
            grid={"scheme.std": [1.0, 3.0]},
            x_param="scheme.std",
            trials=2,
            seed=5,
        )
        recorder = Recorder()
        reporter = TraceReporter()
        engine = Engine(
            executor=SerialExecutor(),
            cache=ResultCache(tmp_path),
            progress=reporter,
        )
        with trace.recording(recorder):
            run_spec(spec, engine=engine)
        manifest = build_manifest(spec=spec, rows=reporter.rows)
        document = recorder.to_document(manifest=manifest)
        validate_trace(document)
        jobs = manifest["jobs"]
        assert len(jobs) == 4
        assert all(job["seed_root"] == 5 for job in jobs)
        assert sorted(tuple(job["seed_path"]) for job in jobs) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        assert all("duration" in job for job in jobs)
        assert manifest["spec"]["hash"]


class TestCliTraceRoundTrip:
    def _write_spec(self, tmp_path):
        spec = {
            "name": "cli-traced",
            "task": "repro.api.tasks:attack_point",
            "params": {
                "dataset": {"kind": "synthetic", "spectrum": [50.0, 10.0]},
                "scheme": {"kind": "additive", "std": 2.0},
                "attacks": {"UDR": {"kind": "udr"}},
                "n_records": 60,
            },
            "grid": {"scheme.std": [1.0, 3.0]},
            "x_param": "scheme.std",
            "seed": 5,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_trace_then_view(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self._write_spec(tmp_path)
        trace_path = tmp_path / "out.json"
        code = main(
            ["run", str(spec_path), "--no-cache", "--trace", str(trace_path)]
        )
        assert code == 0
        document = json.loads(trace_path.read_text())
        validate_trace(document)
        assert document["manifest"]["spec"]["name"] == "cli-traced"
        capsys.readouterr()

        assert main(["trace", str(trace_path), "--validate"]) == 0
        assert "valid repro-trace/v1" in capsys.readouterr().out

        assert main(["trace", str(trace_path), "--top", "2"]) == 0
        rendered = capsys.readouterr().out
        assert "engine.run" in rendered
        assert "slowest jobs" in rendered
        assert "manifest:" in rendered

    def test_view_missing_and_invalid_files(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other"}))
        assert main(["trace", str(bad)]) == 1
        capsys.readouterr()

    def test_bench_trace(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)  # keep bench JSON mirrors out of the repo
        trace_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--filter",
                "telemetry.span_overhead",
                "--repeat",
                "1",
                "--no-baseline",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        document = json.loads(trace_path.read_text())
        validate_trace(document)
        [case] = [
            span
            for span in document["spans"]
            if span["name"] == "bench.case"
        ]
        assert case["attrs"]["case"] == "telemetry.span_overhead.smoke"
        assert document["manifest"]["jobs"][0]["key"].startswith("telemetry.")
        capsys.readouterr()
