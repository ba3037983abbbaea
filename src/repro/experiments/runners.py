"""Runners regenerating the paper's four figures and Theorem 5.2.

Each runner is now a thin wrapper over the declarative API: it builds
the corresponding built-in :class:`~repro.api.spec.ExperimentSpec`
(:mod:`repro.api.builtin`), executes it through
:func:`~repro.api.runner.run_spec`, and returns the aggregated
:class:`~repro.api.config.ExperimentSeries`.

The specs compile into exactly the engine jobs the historical
hand-written loops emitted — same task references, same params, same
``(config.seed, (point_index, trial_index))`` seed tree — so any
worker count or cached rerun produces bit-identical
series, and extending a sweep never changes existing points.
"""

from __future__ import annotations

from repro.api.builtin import (
    figure1_spec,
    figure2_spec,
    figure3_spec,
    figure4_spec,
    theorem52_spec,
)
from repro.api.config import ExperimentSeries, SweepConfig
from repro.api.runner import run_spec
from repro.engine import Engine

__all__ = [
    "run_experiment1_attributes",
    "run_experiment2_principal_components",
    "run_experiment3_nonprincipal_eigenvalues",
    "run_experiment4_correlated_noise",
    "run_theorem52_verification",
]


def run_experiment1_attributes(
    config: SweepConfig | None = None,
    *,
    attribute_counts=None,
    n_principal: int = 5,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """Experiment 1 / Figure 1: RMSE vs the number of attributes ``m``.

    The number of principal components is fixed (``p = 5`` in the paper)
    while ``m`` grows, so correlations rise with ``m``.  Eq. 12 keeps the
    trace at ``variance_per_attribute * m`` so UDR stays flat.
    """
    spec = figure1_spec(
        config, attribute_counts=attribute_counts, n_principal=n_principal
    )
    return run_spec(spec, engine=engine).to_series()


def run_experiment2_principal_components(
    config: SweepConfig | None = None,
    *,
    principal_counts=None,
    n_attributes: int = 100,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """Experiment 2 / Figure 2: RMSE vs the number of principals ``p``.

    ``m`` is fixed at 100; growing ``p`` spreads the (fixed, Eq. 12)
    total variance over more directions, weakening correlations.
    """
    spec = figure2_spec(
        config, principal_counts=principal_counts, n_attributes=n_attributes
    )
    return run_spec(spec, engine=engine).to_series()


def run_experiment3_nonprincipal_eigenvalues(
    config: SweepConfig | None = None,
    *,
    eigenvalues=None,
    n_attributes: int = 100,
    n_principal: int = 20,
    principal_value: float = 400.0,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """Experiment 3 / Figure 3: RMSE vs the non-principal eigenvalue.

    The paper fixes 20 principal eigenvalues at 400 and sweeps the other
    80 from 1 to 50.  Larger non-principal eigenvalues mean more real
    signal lives off the principal subspace — PCA-style filtering
    discards it and eventually does worse than UDR, while BE-DR
    converges to UDR from below (Section 7.4).
    """
    spec = figure3_spec(
        config,
        eigenvalues=eigenvalues,
        n_attributes=n_attributes,
        n_principal=n_principal,
        principal_value=principal_value,
    )
    return run_spec(spec, engine=engine).to_series()


def run_experiment4_correlated_noise(
    config: SweepConfig | None = None,
    *,
    profiles=None,
    n_attributes: int = 100,
    n_principal: int = 50,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """Experiment 4 / Figure 4: the correlated-noise defense (Section 8.2).

    Data: 100 attributes, the first 50 eigenvalues large (the paper's
    setup).  Noise: same eigenvectors as the data, eigenvalue profile
    swept from proportional (similar, dissimilarity ~ 0) through flat
    (independent noise — the figure's vertical line, ``profile = 1``)
    to reversed (concentrated on non-principal directions).  Total noise
    power is fixed at ``m * sigma^2`` throughout.

    The x-axis is the *measured* Definition-8.1 dissimilarity; curves are
    SF, PCA-DR, and the improved BE-DR (Theorem 8.1).
    """
    spec = figure4_spec(
        config,
        profiles=profiles,
        n_attributes=n_attributes,
        n_principal=n_principal,
    )
    return run_spec(spec, engine=engine).to_series()


def run_theorem52_verification(
    *,
    n_attributes: int = 100,
    component_counts=(5, 20, 50, 80, 100),
    noise_std: float = 5.0,
    n_records: int = 5000,
    seed: int = 52,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """Empirical check of Theorem 5.2: ``mean_square(R Q_p Q_p^T) = sigma^2 p/m``.

    Draws i.i.d. noise, projects it onto the top-``p`` eigenvectors of a
    random orthogonal basis, and compares the surviving energy to the
    analytic ``sigma^2 * p / m``.  Runs as a single engine job whose
    generator is the root ``SeedSequence(seed)`` — identical to the
    historical direct computation.
    """
    spec = theorem52_spec(
        n_attributes=n_attributes,
        component_counts=component_counts,
        noise_std=noise_std,
        n_records=n_records,
        seed=seed,
    )
    return run_spec(spec, engine=engine).to_series()
