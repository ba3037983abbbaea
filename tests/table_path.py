"""The figure jobs run the literal Section 7.1 way, from the public API.

The figure tasks (``repro.experiments.tasks``) draw each job's joint
mean and scatter of ``(X, R)`` instead of the two ``(n, m)`` tables.
The functions here run the same job as the paper describes it — draw
the eigenbasis and the table ``X``, add the noise table ``R``, attack
``Y`` — through ``generate_dataset`` and ``AttackPipeline``, consuming
the job's generator in that order.  Tests pin the table path's own
numbers with them and hold the moment path to it in distribution.
"""

from __future__ import annotations

import numpy as np

from repro.core.defense import NoiseDesigner
from repro.core.pipeline import AttackPipeline
from repro.data.synthetic import generate_dataset
from repro.engine.jobs import derive_rng
from repro.randomization.additive import AdditiveNoiseScheme
from repro.reconstruction import (
    BayesEstimateReconstructor,
    PCAReconstructor,
    SpectralFilteringReconstructor,
    UnivariateReconstructor,
)


def _correlation_attacks():
    return {
        "SF": SpectralFilteringReconstructor(),
        "PCA-DR": PCAReconstructor(),
        "BE-DR": BayesEstimateReconstructor(),
    }


def two_level_table_trial(params, rng):
    """``two_level_trial`` on tables: its payload, its attack battery."""
    dataset = generate_dataset(
        spectrum=np.asarray(params["spectrum"], dtype=np.float64),
        n_records=int(params["n_records"]),
        rng=rng,
    )
    attacks = {"UDR": UnivariateReconstructor(prior="gaussian")}
    attacks.update(_correlation_attacks())
    pipeline = AttackPipeline(
        AdditiveNoiseScheme(float(params["noise_std"])), attacks
    )
    report = pipeline.run(dataset, rng=rng)
    return {"rmse": {name: report.rmse(name) for name in attacks}}


def correlated_noise_table_trial(params, rng):
    """``correlated_noise_trial`` on tables: its payload, its battery."""
    dataset = generate_dataset(
        spectrum=np.asarray(params["spectrum"], dtype=np.float64),
        n_records=int(params["n_records"]),
        rng=rng,
    )
    designed = NoiseDesigner(
        dataset.covariance_model, noise_power=float(params["noise_power"])
    ).design(float(params["profile"]))
    attacks = _correlation_attacks()
    report = AttackPipeline(designed.scheme, attacks).run(dataset, rng=rng)
    return {
        "rmse": {name: report.rmse(name) for name in attacks},
        "dissimilarity": float(designed.dissimilarity),
    }


TABLE_TASKS = {
    "repro.experiments.tasks:two_level_trial": two_level_table_trial,
    "repro.experiments.tasks:correlated_noise_trial": correlated_noise_table_trial,
}


def run_on_tables(job):
    """Run a figure ``JobSpec`` on tables with the job's own generator."""
    return TABLE_TASKS[job.task](job.params, derive_rng(job))
