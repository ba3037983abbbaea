"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys
import types

import pytest
from repro.api import run_spec

from perfbench import check, workload
from perfbench.hostspeed import HostSpeed
from perfbench.layers import LayerTimer

ROOT = check.REFERENCE_PATH.parent.parent
TINY_RECORDS = 200
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tiny_runner(name, tmp_path):
    return workload.Runner(
        workload.WORKLOADS[name], 2005, tmp_path / name, n_records=TINY_RECORDS
    )


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    runner = _tiny_runner(name, tmp_path)
    with HostSpeed() as host:
        walls, slowdowns, results = runner.run_once(host)
        assert len(slowdowns) == len(walls) + 1 == len(runner.specs) * runner.steps + 1
        assert min(walls) > 0 and min(slowdowns) > 0
        assert [r.spec.name for r in results] == [s.name for s in runner.specs]
        assert check.nonfinite_problems(results) == []
        # Running a figure in steps gives what one run_spec call gives.
        direct = [run_spec(spec, engine=runner.engine) for spec in runner.specs]
        assert check.sweep_means(direct) == check.sweep_means(results)
        # A reference taken from the run itself: the seed fixes every bit.
        reference = {
            "tolerance": 1e-9,
            "order": [],
            "order_on": [],
            "sweep_mean_rmse": check.sweep_means(results),
        }
        outcome = workload.measure(runner, host, 0.0, True, reference)
    assert outcome["failed"] == 0, outcome["problems"]
    values = workload.layer_values(outcome["repeats"], runner.workers)
    for metric in [*workload.PER_LAYER, *workload.DETAIL_ONLY]:
        assert math.isfinite(values[metric]), metric
    assert values["engine.jobs"] == sum(len(s.compile_jobs()) for s in runner.specs)
    assert values["engine.cache.puts"] == values["engine.jobs"]
    assert values["reconstruction.be-dr.calls"] == values["engine.jobs"]
    assert (values["core.defense.design.calls"] > 0) == ("figure4" in workload.WORKLOADS[name].figures)
    assert not (tmp_path / name).exists() or not any((tmp_path / name).iterdir())


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == workload.END_TO_END
    assert per_layer == workload.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(workload.WORKLOADS)
    for name, unit in {**end_to_end, **per_layer, **workload.DETAIL_ONLY}.items():
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_check_accepts_reference_and_rejects_corruption():
    reference = check.load_reference()
    means = copy.deepcopy(reference["sweep_mean_rmse"])
    assert check.reference_problems(means, reference) == []

    off = copy.deepcopy(means)
    off["figure2/n2000"]["BE-DR"] *= 1.10
    assert check.reference_problems(off, reference)

    missing = copy.deepcopy(means)
    del missing["figure4/n2000"]["SF"]
    assert check.reference_problems(missing, reference)

    assert check.reference_problems({"figure9/n5": {"UDR": 1.0}}, reference)

    loose = dict(reference, tolerance=1.0)
    swapped = copy.deepcopy(means)
    figure1 = swapped["figure1/n2000"]
    figure1["BE-DR"], figure1["PCA-DR"] = figure1["PCA-DR"], figure1["BE-DR"]
    assert check.reference_problems(swapped, loose)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "nan", None])
def test_check_rejects_nonfinite_rmse(bad):
    result = types.SimpleNamespace(
        spec=types.SimpleNamespace(name="figure2", params={"n_records": 2000}),
        payloads=(({"rmse": {"UDR": 4.4, "BE-DR": bad}},),),
        series={},
    )
    assert check.nonfinite_problems([result])


def test_layer_timer_charges_self_time_and_restores():
    def inner():
        return sum(range(20_000))

    namespace = types.SimpleNamespace(inner=inner)
    namespace.outer = lambda: [namespace.inner() for _ in range(3)]
    originals = dict(vars(namespace))

    class Owner:
        @classmethod
        def build(cls):
            return cls

    timer = LayerTimer()
    with timer.patched(
        [(namespace, "outer", "outer"), (namespace, "inner", "inner"), (Owner, "build", "build")]
    ):
        namespace.outer()
        assert Owner.build() is Owner
    assert vars(namespace) == originals
    assert not hasattr(Owner.build, "__wrapped__")
    assert timer.calls == {"outer": 1, "inner": 3, "build": 1}
    assert timer.self_time["inner"] > 0 and timer.self_time["outer"] >= 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
