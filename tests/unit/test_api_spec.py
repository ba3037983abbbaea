"""Unit tests for ExperimentSpec validation and engine compilation."""

import json

import pytest

from repro.api.spec import GENERIC_TASK, ExperimentSpec
from repro.engine import JobSpec
from repro.exceptions import ValidationError


def component_spec(**overrides):
    payload = {
        "name": "test",
        "dataset": {"kind": "synthetic", "spectrum": [40.0, 4.0, 4.0]},
        "scheme": {"kind": "additive", "std": 5.0},
        "attacks": {"UDR": {"kind": "udr"}, "BE-DR": {"kind": "be-dr"}},
        "params": {"n_records": 100},
        "seed": 7,
    }
    payload.update(overrides)
    return ExperimentSpec(**payload)


class TestValidation:
    def test_minimal_component_spec(self):
        spec = component_spec()
        assert spec.task_ref == GENERIC_TASK
        assert len(spec.expand_points()) == 1

    def test_name_required(self):
        with pytest.raises(ValidationError, match="name"):
            component_spec(name="")

    def test_component_mode_needs_dataset(self):
        with pytest.raises(ValidationError, match="dataset"):
            component_spec(dataset=None)

    def test_component_mode_needs_exactly_one_adversary(self):
        with pytest.raises(ValidationError, match="exactly one"):
            component_spec(attacks=None)
        with pytest.raises(ValidationError, match="exactly one"):
            component_spec(
                threat_model={"kind": "threat_model"},
            )

    def test_component_mode_needs_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            component_spec(seed=None)

    def test_component_mode_needs_n_records(self):
        with pytest.raises(ValidationError, match="n_records"):
            component_spec(params={})

    def test_unknown_component_kind_fails_eagerly(self):
        with pytest.raises(ValidationError, match="unknown scheme"):
            component_spec(scheme={"kind": "nope"}).compile_jobs()

    def test_typoed_component_field_fails_eagerly(self):
        with pytest.raises(ValidationError, match="stdd"):
            component_spec(
                scheme={"kind": "additive", "stdd": 5.0}
            ).compile_jobs()

    def test_raw_mode_rejects_components(self):
        with pytest.raises(ValidationError, match="not allowed"):
            ExperimentSpec(
                name="raw",
                task="repro.experiments.tasks:two_level_trial",
                scheme={"kind": "additive", "std": 5.0},
            )

    def test_bad_task_reference(self):
        with pytest.raises(ValidationError, match="package.module"):
            ExperimentSpec(name="raw", task="no-colon")

    def test_grid_and_points_exclusive(self):
        with pytest.raises(ValidationError, match="not both"):
            component_spec(
                grid={"scheme.std": [1.0]}, points=({"scheme.std": 2.0},)
            )

    def test_empty_grid_values_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            component_spec(grid={"scheme.std": []})

    def test_seed_mode_root_single_job_only(self):
        with pytest.raises(ValidationError, match="root"):
            component_spec(seed_mode="root", trials=2)

    def test_multiple_x_sources_rejected(self):
        with pytest.raises(ValidationError, match="at most one"):
            component_spec(x_param="scheme.std", x_from="dissimilarity")

    def test_x_values_length_checked(self):
        with pytest.raises(ValidationError, match="x_values"):
            component_spec(
                grid={"scheme.std": [1.0, 2.0]},
                x_values=[1.0, 2.0, 3.0],
                trials=2,
            )


class TestSweepExpansion:
    def test_grid_cross_product_insertion_order(self):
        spec = component_spec(
            grid={"scheme.std": [1.0, 2.0], "n_records": [50, 100]}
        )
        points = spec.expand_points()
        assert points == [
            {"scheme.std": 1.0, "n_records": 50},
            {"scheme.std": 1.0, "n_records": 100},
            {"scheme.std": 2.0, "n_records": 50},
            {"scheme.std": 2.0, "n_records": 100},
        ]

    def test_dotted_override_lands_in_component(self):
        spec = component_spec(grid={"scheme.std": [1.0, 9.0]})
        params = spec.point_params({"scheme.std": 9.0})
        assert params["scheme"]["std"] == 9.0
        # The base spec is untouched.
        assert spec.scheme["std"] == 5.0

    def test_unresolvable_override_path(self):
        spec = component_spec()
        with pytest.raises(ValidationError, match="does not resolve"):
            spec.point_params({"scheme.inner.std": 1.0})

    def test_x_param_values(self):
        spec = component_spec(
            grid={"scheme.std": [1.0, 2.0]}, x_param="scheme.std"
        )
        hint = spec.x_values_hint(spec.expand_points())
        assert hint.tolist() == [1.0, 2.0]


class TestCompileJobs:
    def test_component_jobs(self):
        spec = component_spec(grid={"scheme.std": [1.0, 2.0]}, trials=3)
        jobs = spec.compile_jobs()
        assert len(jobs) == 6
        assert all(isinstance(job, JobSpec) for job in jobs)
        assert jobs[0].task == GENERIC_TASK
        assert [job.seed_path for job in jobs] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        assert all(job.seed_root == 7 for job in jobs)
        assert jobs[0].params["scheme"]["std"] == 1.0
        assert jobs[5].params["scheme"]["std"] == 2.0

    def test_raw_mode_without_seed_uses_flat_paths(self):
        spec = ExperimentSpec(
            name="raw",
            task="repro.experiments.tasks:ablation_samplesize_point",
            points=(
                {"n_records": 100, "data_seed": 1},
                {"n_records": 200, "data_seed": 2},
            ),
            params={"spectrum": [10.0, 1.0], "noise_std": 5.0,
                    "attack_seed": 3},
        )
        jobs = spec.compile_jobs()
        assert [job.seed_path for job in jobs] == [(), ()]
        assert all(job.seed_root is None for job in jobs)
        assert jobs[1].params["n_records"] == 200

    def test_seed_mode_root(self):
        spec = ExperimentSpec(
            name="single",
            task="repro.experiments.tasks:theorem52_check",
            params={"n_attributes": 10, "component_counts": [2],
                    "noise_std": 5.0, "n_records": 100},
            seed=52,
            seed_mode="root",
            x_values=[2.0],
        )
        (job,) = spec.compile_jobs()
        assert job.seed_root == 52
        assert job.seed_path == ()


class TestSerialization:
    def test_json_round_trip(self):
        spec = component_spec(
            grid={"scheme.std": [1.0, 2.0]},
            x_param="scheme.std",
            x_label="sigma",
            trials=2,
            metadata={"note": "round trip"},
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert [job.key() for job in clone.compile_jobs()] == [
            job.key() for job in spec.compile_jobs()
        ]

    def test_from_dict_rejects_unknown_fields(self):
        payload = component_spec().to_dict()
        payload["tirals"] = 3
        with pytest.raises(ValidationError, match="tirals"):
            ExperimentSpec.from_dict(payload)

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(ValidationError, match="invalid spec JSON"):
            ExperimentSpec.from_json("{not json")

    def test_to_dict_is_strict_json(self):
        spec = component_spec()
        json.dumps(spec.to_dict(), allow_nan=False)

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = component_spec()
        path.write_text(spec.to_json())
        assert ExperimentSpec.from_file(path) == spec


class TestEagerXParamValidation:
    def test_typoed_x_param_fails_at_construction(self):
        # Regression: this used to surface only after the sweep ran.
        with pytest.raises(ValidationError, match="x_param"):
            component_spec(
                grid={"scheme.std": [1.0, 2.0]}, x_param="scheme.stdd"
            )


class TestCompileValidationScope:
    def test_component_sweep_points_validated_eagerly(self):
        spec = component_spec(grid={"scheme.std": [1.0, -3.0]})
        with pytest.raises(ValidationError):
            spec.compile_jobs()

    def test_non_component_sweep_skips_reinstantiation(self, monkeypatch):
        import repro.api.spec as spec_module

        spec = component_spec(grid={"n_records": [50, 60, 70]})
        calls = []
        monkeypatch.setattr(
            spec_module.SCHEMES,
            "validate",
            lambda payload: calls.append(payload),
        )
        spec.compile_jobs()
        assert calls == []


class TestRunSpecEngineDefaults:
    def test_engine_kwargs_do_not_enable_caching(self):
        # Regression: run_spec(spec, jobs=1) used to flip the cache on.
        from repro.api.runner import build_engine

        assert build_engine().cache is None
        assert build_engine(jobs=1).cache is None
        assert build_engine(cache=True).cache is not None

    @pytest.mark.parametrize("jobs", [1, 2, 5])
    def test_jobs_is_the_worker_count(self, jobs):
        from repro.api.runner import build_engine

        assert build_engine(jobs=jobs).executor.workers == jobs

    def test_zero_jobs_autodetects(self):
        from repro.api.runner import build_engine
        from repro.engine.executor import default_worker_count

        assert build_engine(jobs=0).executor.workers == default_worker_count()

    def test_negative_jobs_rejected(self):
        from repro.api.runner import build_engine

        with pytest.raises(ValidationError, match="workers must be"):
            build_engine(jobs=-1)


class TestRawTaskSeedGuard:
    def test_raw_task_without_seed_rejects_multiple_trials(self):
        with pytest.raises(ValidationError, match="trials"):
            ExperimentSpec(
                name="raw",
                task="repro.experiments.tasks:ablation_samplesize_point",
                points=({"n_records": 100, "data_seed": 1},),
                params={"spectrum": [10.0, 1.0], "noise_std": 5.0,
                        "attack_seed": 3},
                trials=3,
            )

    def test_raw_task_with_seed_allows_multiple_trials(self):
        spec = ExperimentSpec(
            name="raw",
            task="repro.experiments.tasks:ablation_samplesize_point",
            points=({"n_records": 100, "data_seed": 1},),
            params={"spectrum": [10.0, 1.0], "noise_std": 5.0,
                    "attack_seed": 3},
            trials=3,
            seed=9,
        )
        assert [job.seed_path for job in spec.compile_jobs()] == [
            (0, 0), (0, 1), (0, 2),
        ]
