"""Ablation runners (DESIGN.md A2-A6).

These are not figures from the paper; they probe the design choices the
paper makes implicitly — which component-selection rule, how much the
Theorem-5.1 estimate costs vs the true covariance, how sample size and
non-normal marginals move the results, and whether disguised data stays
minable.  Each returns an :class:`ExperimentSeries` like the figure
runners, so the same reporting and benchmark plumbing applies.

Like the figure runners, every ablation is a thin wrapper over its
built-in :class:`~repro.api.spec.ExperimentSpec`
(:mod:`repro.api.builtin`) executed through
:func:`~repro.api.runner.run_spec`.  The ablations keep their historical
explicit integer seeding: each compiled job carries its seeds in
``params`` and is therefore bit-identical to the old in-process loops
for any worker count.
"""

from __future__ import annotations

from repro.api.builtin import (
    ablation_covariance_spec,
    ablation_marginals_spec,
    ablation_samplesize_spec,
    ablation_selection_spec,
    ablation_utility_spec,
)
from repro.api.config import ExperimentSeries
from repro.api.runner import run_spec
from repro.engine import Engine

__all__ = [
    "run_ablation_selection",
    "run_ablation_covariance",
    "run_ablation_samplesize",
    "run_ablation_utility",
    "run_ablation_marginals",
]


def run_ablation_selection(
    *,
    n_attributes: int = 60,
    n_principal: int = 5,
    n_records: int = 2000,
    noise_std: float = 5.0,
    seed: int = 42,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """A2 — PCA-DR component-selection rules across spectrum shapes.

    Compares oracle fixed-count, energy-fraction, and largest-gap (the
    paper's choice) on a clean two-level spectrum and on a geometric
    decay with no gap to find.
    """
    spec = ablation_selection_spec(
        n_attributes=n_attributes,
        n_principal=n_principal,
        n_records=n_records,
        noise_std=noise_std,
        seed=seed,
    )
    return run_spec(spec, engine=engine).to_series()


def run_ablation_covariance(
    *,
    sample_sizes=(100, 200, 500, 1000, 2000, 5000),
    n_attributes: int = 40,
    n_principal: int = 5,
    noise_std: float = 5.0,
    seed: int = 42,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """A3 — Theorem-5.1 estimated covariance vs the oracle, across n."""
    spec = ablation_covariance_spec(
        sample_sizes=sample_sizes,
        n_attributes=n_attributes,
        n_principal=n_principal,
        noise_std=noise_std,
        seed=seed,
    )
    return run_spec(spec, engine=engine).to_series()


def run_ablation_samplesize(
    *,
    sample_sizes=(100, 250, 500, 1000, 2500, 5000, 10000),
    n_attributes: int = 50,
    n_principal: int = 5,
    noise_std: float = 5.0,
    seed: int = 42,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """A4 — attack accuracy vs the number of published records."""
    spec = ablation_samplesize_spec(
        sample_sizes=sample_sizes,
        n_attributes=n_attributes,
        n_principal=n_principal,
        noise_std=noise_std,
        seed=seed,
    )
    return run_spec(spec, engine=engine).to_series()


def run_ablation_utility(
    *,
    n_train: int = 6000,
    n_test: int = 3000,
    n_attributes: int = 8,
    noise_std: float = 4.0,
    seed: int = 0,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """A5 — naive-Bayes utility under the baseline and improved schemes."""
    spec = ablation_utility_spec(
        n_train=n_train,
        n_test=n_test,
        n_attributes=n_attributes,
        noise_std=noise_std,
        seed=seed,
    )
    return run_spec(spec, engine=engine).to_series()


def run_ablation_marginals(
    *,
    marginals=("normal", "lognormal", "uniform", "bimodal"),
    n_attributes: int = 30,
    n_principal: int = 4,
    n_records: int = 2000,
    noise_std: float = 5.0,
    seed: int = 11,
    engine: Engine | None = None,
) -> ExperimentSeries:
    """A6 — non-normal marginals (Section 6's normality assumption).

    BE-DR is derived for multivariate-normal data; real attributes are
    skewed or multi-modal.  This ablation keeps the correlation structure
    fixed (Gaussian copula) and swaps the marginals, measuring how much
    of the attack's edge over UDR survives model misspecification.
    """
    spec = ablation_marginals_spec(
        marginals=marginals,
        n_attributes=n_attributes,
        n_principal=n_principal,
        n_records=n_records,
        noise_std=noise_std,
        seed=seed,
    )
    return run_spec(spec, engine=engine).to_series()
