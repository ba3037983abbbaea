"""Cold start: a figure process imports only what it runs.

The paper's figures run on numpy alone, so setting up and running one
must not load scipy (about 0.2 s of import, more than a default-scale
figure's compute).  scipy stays behind the few functions that need it,
such as the copula datasets' marginal transforms.  A pooled run imports
each job's task module in the parent before the workers fork, so the
workers inherit it instead of importing it themselves.

Every check runs in a fresh interpreter, so ``sys.modules`` shows what
the code imports rather than what earlier tests left loaded.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; the JSON it prints last."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_figure_setup_imports_no_scipy():
    loaded = _fresh(
        """
        import json, sys
        from repro.api import SweepConfig, build_engine, builtin_spec

        config = SweepConfig(n_records=2000, seed=2005)
        figures = ("figure1", "figure2", "figure3", "figure4")
        specs = [builtin_spec(name, config) for name in figures]
        build_engine(jobs=2)
        print(json.dumps({"scipy": "scipy" in sys.modules}))
        """
    )
    assert loaded == {"scipy": False}


@pytest.mark.parametrize("mode", ["serial", "jobs2", "trace"])
def test_figure2_run_imports_no_scipy(mode, tmp_path):
    flags = {
        "serial": [],
        "jobs2": ["--jobs", "2"],
        "trace": ["--trace", str(tmp_path / "run.jsonl")],
    }[mode]
    argv = ["figure2", "--records", "120", "--no-cache", *flags]
    loaded = _fresh(
        f"""
        import json, sys
        from repro.cli import main

        code = main({argv!r})
        print(json.dumps({{
            "code": code,
            "scipy": "scipy" in sys.modules,
            "tasks": "repro.experiments.tasks" in sys.modules,
            "numpy.random": "numpy.random" in sys.modules,
        }}))
        """
    )
    # The parent of a pool runs no job, so it holds the task module and
    # numpy.random only because it imported them for its workers.
    assert loaded == {
        "code": 0, "scipy": False, "tasks": True, "numpy.random": True
    }
    if mode == "trace":
        assert (tmp_path / "run.jsonl").stat().st_size > 0


@pytest.mark.parametrize("marginal", ["normal", "lognormal", "uniform", "bimodal"])
def test_copula_loads_scipy_only_when_a_marginal_needs_it(marginal):
    loaded = _fresh(
        f"""
        import json, sys
        import numpy as np
        from repro.data.copula import GaussianCopulaGenerator

        generator = GaussianCopulaGenerator(
            [[1.0, 0.6], [0.6, 1.0]], marginal={marginal!r}, target_std=2.0
        )
        before = "scipy" in sys.modules
        table = generator.sample(4000, rng=3)
        print(json.dumps({{
            "before": before,
            "after": "scipy" in sys.modules,
            "finite": bool(np.isfinite(table).all()),
            "std": table.std(axis=0).tolist(),
        }}))
        """
    )
    assert loaded["before"] is False
    # The normal marginal is the latent draw itself; the others push it
    # through scipy's normal CDF.
    assert loaded["after"] is (marginal != "normal")
    assert loaded["finite"]
    assert loaded["std"] == pytest.approx([2.0, 2.0], rel=0.1)
