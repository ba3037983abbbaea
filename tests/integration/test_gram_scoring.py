"""Closed-form scoring of the figure attacks, against the materialised one.

The four figure attacks are scored from one cross-Gram per dataset (see
:mod:`repro.metrics.error`).  On every one of the 43 Figure 1-4 jobs at
the ``SweepConfig`` defaults (Figure 4's correlated noise included), run
on tables with the job's own generator (``tests/table_path.py``), the
closed-form scores equal the scores of the materialised estimates to
``rtol=1e-9`` (RMSE) and ``rtol=1e-8`` (per attribute), and the
cancellation guard never fires.  The figure tasks themselves hold no
tables, so only the closed form can score them: on all 43 jobs it does,
with no estimate built and no guard fired.

The paper's oracles are ``tests/integration/test_oracles.py``.
"""

import numpy as np

from repro.api import SweepConfig, builtin_spec
from repro.core import pipeline
from repro.engine.jobs import derive_rng, resolve_task
from repro.metrics.error import per_attribute_rmse, root_mean_square_error
from repro.randomization.base import DisguisedDataset
from repro.reconstruction.base import AffineMap
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder

from tests.table_path import run_on_tables

FIGURES = ("figure1", "figure2", "figure3", "figure4")


def _figure_jobs():
    return [
        job
        for name in FIGURES
        for job in builtin_spec(name, SweepConfig()).compile_jobs()
    ]


class TestAgreementOnEveryFigureJob:
    def test_gram_scores_match_materialised_scores(self, monkeypatch):
        worst = {"rmse": 0.0, "per_attribute": 0.0}
        scored = []

        def rmse(reference, result):
            assert isinstance(reference, DisguisedDataset)
            assert result.affine is not None
            gram = root_mean_square_error(reference, result)
            materialised = root_mean_square_error(
                reference.original, result.estimate
            )
            worst["rmse"] = max(worst["rmse"], abs(gram / materialised - 1.0))
            scored.append(result.method)
            return gram

        def per_attribute(reference, result):
            gram = per_attribute_rmse(reference, result)
            materialised = per_attribute_rmse(reference.original, result.estimate)
            worst["per_attribute"] = max(
                worst["per_attribute"],
                float(np.max(np.abs(gram / materialised - 1.0))),
            )
            return gram

        monkeypatch.setattr(pipeline, "root_mean_square_error", rmse)
        monkeypatch.setattr(pipeline, "per_attribute_rmse", per_attribute)
        jobs = _figure_jobs()
        assert len(jobs) == 43
        recorder = Recorder()
        with trace.recording(recorder):
            for job in jobs:
                run_on_tables(job)
        # 34 four-attack jobs (Figures 1-3) and 9 three-attack jobs.
        assert len(scored) == 34 * 4 + 9 * 3
        assert recorder.counters.get("metrics.score.fallbacks", 0) == 0
        assert worst["rmse"] < 1e-9
        assert worst["per_attribute"] < 1e-8

    def test_moment_path_scores_every_job_in_closed_form(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an (n, m) estimate was materialised")

        monkeypatch.setattr(AffineMap, "apply", refuse)
        recorder = Recorder()
        with trace.recording(recorder):
            payloads = [
                resolve_task(job.task)(job.params, derive_rng(job))
                for job in _figure_jobs()
            ]
        scores = [value for p in payloads for value in p["rmse"].values()]
        assert len(scores) == 34 * 4 + 9 * 3
        assert np.isfinite(scores).all()
        assert "metrics.score.fallbacks" not in recorder.counters
