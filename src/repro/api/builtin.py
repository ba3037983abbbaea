"""Built-in experiment specs: the paper's figures and the ablations.

Every experiment this repository reproduces is expressed here as an
:class:`~repro.api.spec.ExperimentSpec`; run one with
:func:`~repro.api.runner.run_spec`, e.g.
``run_spec(figure1_spec(config), engine=engine).to_series()``.

The specs compile to *exactly* the engine jobs the historical
hand-written runners emitted (same task references, same params, same
seed coordinates), so outputs — and cache keys — are bit-identical to
the pre-declarative code.  ``builtin_spec(name)`` is the by-name entry
point the CLI and docs use.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.api.config import SweepConfig
from repro.api.spec import ExperimentSpec
from repro.data.spectra import decaying_spectrum, two_level_spectrum
from repro.exceptions import ConfigurationError

__all__ = [
    "BUILTIN_SPECS",
    "builtin_spec",
    "figure1_spec",
    "figure2_spec",
    "figure3_spec",
    "figure4_spec",
    "theorem52_spec",
    "ablation_selection_spec",
    "ablation_covariance_spec",
    "ablation_samplesize_spec",
    "ablation_utility_spec",
    "ablation_marginals_spec",
]

_TWO_LEVEL_TASK = "repro.experiments.tasks:two_level_trial"
_CORRELATED_TASK = "repro.experiments.tasks:correlated_noise_trial"
_THEOREM52_TASK = "repro.experiments.tasks:theorem52_check"
_SELECTION_TASK = "repro.experiments.tasks:ablation_selection_workload"
_COVARIANCE_TASK = "repro.experiments.tasks:ablation_covariance_point"
_SAMPLESIZE_TASK = "repro.experiments.tasks:ablation_samplesize_point"
_UTILITY_TASK = "repro.experiments.tasks:ablation_utility_scheme"
_MARGINALS_TASK = "repro.experiments.tasks:ablation_marginals_shape"


def _two_level_spec(
    name: str,
    x_label: str,
    sweep_points: Iterable[float],
    spectrum_for_point: Callable[[Any], np.ndarray],
    config: SweepConfig,
    metadata: dict[str, Any],
) -> ExperimentSpec:
    """Shared builder for Experiments 1-3 (i.i.d. noise, two-level spectra)."""
    points = list(sweep_points)
    if not points:
        raise ConfigurationError("sweep has no points")
    return ExperimentSpec(
        name=name,
        task=_TWO_LEVEL_TASK,
        params={
            "n_records": config.n_records,
            "noise_std": config.noise_std,
        },
        points=tuple(
            {
                "spectrum": np.asarray(
                    spectrum_for_point(point), dtype=np.float64
                ).tolist()
            }
            for point in points
        ),
        trials=config.n_trials,
        seed=config.seed,
        x_values=[float(point) for point in points],
        x_label=x_label,
        metadata=metadata,
    )


def figure1_spec(
    config: SweepConfig | None = None,
    *,
    attribute_counts: Sequence[int] | None = None,
    n_principal: int = 5,
) -> ExperimentSpec:
    """Experiment 1 / Figure 1: RMSE vs the number of attributes ``m``."""
    config = config or SweepConfig()
    if attribute_counts is None:
        attribute_counts = [5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    counts = [int(m) for m in attribute_counts]
    if any(m < n_principal for m in counts):
        raise ConfigurationError(
            f"all attribute counts must be >= n_principal={n_principal}"
        )

    def spectrum_for(m: int) -> np.ndarray:
        if m == n_principal:
            # Degenerate first point: every component is principal.
            return two_level_spectrum(
                m, m, total_variance=config.trace_for(m),
                non_principal_value=config.non_principal_value,
            )
        return two_level_spectrum(
            m,
            n_principal,
            total_variance=config.trace_for(m),
            non_principal_value=config.non_principal_value,
        )

    return _two_level_spec(
        "figure1",
        "number of attributes (m)",
        counts,
        spectrum_for,
        config,
        {
            "n_records": config.n_records,
            "noise_std": config.noise_std,
            "n_trials": config.n_trials,
            "n_principal": n_principal,
        },
    )


def figure2_spec(
    config: SweepConfig | None = None,
    *,
    principal_counts: Sequence[int] | None = None,
    n_attributes: int = 100,
) -> ExperimentSpec:
    """Experiment 2 / Figure 2: RMSE vs the number of principals ``p``."""
    config = config or SweepConfig()
    if principal_counts is None:
        principal_counts = [2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    counts = [int(p) for p in principal_counts]
    if any(p < 1 or p > n_attributes for p in counts):
        raise ConfigurationError(
            f"principal counts must lie in [1, {n_attributes}]"
        )
    trace = config.trace_for(n_attributes)

    def spectrum_for(p: int) -> np.ndarray:
        return two_level_spectrum(
            n_attributes,
            p,
            total_variance=trace,
            non_principal_value=config.non_principal_value,
        )

    return _two_level_spec(
        "figure2",
        "number of principal components (p)",
        counts,
        spectrum_for,
        config,
        {
            "n_records": config.n_records,
            "noise_std": config.noise_std,
            "n_trials": config.n_trials,
            "n_attributes": n_attributes,
        },
    )


def figure3_spec(
    config: SweepConfig | None = None,
    *,
    eigenvalues: Sequence[float] | None = None,
    n_attributes: int = 100,
    n_principal: int = 20,
    principal_value: float = 400.0,
) -> ExperimentSpec:
    """Experiment 3 / Figure 3: RMSE vs the non-principal eigenvalue."""
    config = config or SweepConfig()
    if eigenvalues is None:
        eigenvalues = [1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    values = [float(e) for e in eigenvalues]
    if any(e <= 0.0 or e > principal_value for e in values):
        raise ConfigurationError(
            f"non-principal eigenvalues must lie in (0, {principal_value}]"
        )

    def spectrum_for(e: float) -> np.ndarray:
        return two_level_spectrum(
            n_attributes,
            n_principal,
            principal_value=principal_value,
            non_principal_value=e,
        )

    return _two_level_spec(
        "figure3",
        "eigenvalue of the non-principal components",
        values,
        spectrum_for,
        config,
        {
            "n_records": config.n_records,
            "noise_std": config.noise_std,
            "n_trials": config.n_trials,
            "n_attributes": n_attributes,
            "n_principal": n_principal,
            "principal_value": principal_value,
        },
    )


def figure4_spec(
    config: SweepConfig | None = None,
    *,
    profiles: Sequence[float] | None = None,
    n_attributes: int = 100,
    n_principal: int = 50,
) -> ExperimentSpec:
    """Experiment 4 / Figure 4: the correlated-noise defense (Section 8.2)."""
    config = config or SweepConfig()
    if profiles is None:
        profiles = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    profile_values = [float(t) for t in profiles]
    if not profile_values:
        raise ConfigurationError("sweep has no points")
    noise_power = n_attributes * config.noise_std**2
    spectrum = two_level_spectrum(
        n_attributes,
        n_principal,
        total_variance=config.trace_for(n_attributes),
        non_principal_value=config.non_principal_value,
    )
    return ExperimentSpec(
        name="figure4",
        task=_CORRELATED_TASK,
        params={
            "spectrum": np.asarray(spectrum).tolist(),
            "n_records": config.n_records,
            "noise_power": noise_power,
        },
        points=tuple({"profile": profile} for profile in profile_values),
        trials=config.n_trials,
        seed=config.seed,
        x_from="dissimilarity",
        x_label="correlation dissimilarity (noise vs data)",
        metadata={
            "n_records": config.n_records,
            "noise_power": noise_power,
            "profiles": profile_values,
            "independent_noise_profile": 1.0,
            "n_attributes": n_attributes,
            "n_principal": n_principal,
            "n_trials": config.n_trials,
        },
    )


def theorem52_spec(
    *,
    n_attributes: int = 100,
    component_counts: Sequence[int] = (5, 20, 50, 80, 100),
    noise_std: float = 5.0,
    n_records: int = 5000,
    seed: int = 52,
) -> ExperimentSpec:
    """Empirical check of Theorem 5.2 (single root-seeded job)."""
    counts = [int(p) for p in component_counts]
    for p in counts:
        if not 1 <= p <= n_attributes:
            raise ConfigurationError(
                f"component counts must lie in [1, {n_attributes}]"
            )
    return ExperimentSpec(
        name="theorem52",
        task=_THEOREM52_TASK,
        params={
            "n_attributes": n_attributes,
            "component_counts": counts,
            "noise_std": noise_std,
            "n_records": n_records,
        },
        seed=seed,
        seed_mode="root",
        x_values=[float(p) for p in counts],
        x_label="number of principal components (p)",
        metadata={
            "n_attributes": n_attributes,
            "noise_std": noise_std,
            "n_records": n_records,
        },
    )


def ablation_selection_spec(
    *,
    n_attributes: int = 60,
    n_principal: int = 5,
    n_records: int = 2000,
    noise_std: float = 5.0,
    seed: int = 42,
) -> ExperimentSpec:
    """A2 — PCA-DR component-selection rules across spectrum shapes."""
    workloads = {
        f"two-level(m={n_attributes},p={n_principal})": two_level_spectrum(
            n_attributes,
            n_principal,
            total_variance=100.0 * n_attributes,
            non_principal_value=4.0,
        ),
        f"decaying(m={n_attributes},rate=0.9)": decaying_spectrum(
            n_attributes, decay=0.9, total_variance=100.0 * n_attributes
        ),
    }
    return ExperimentSpec(
        name="ablation-selection",
        task=_SELECTION_TASK,
        points=tuple(
            {
                "spectrum": np.asarray(spectrum).tolist(),
                "n_principal": n_principal,
                "n_records": n_records,
                "noise_std": noise_std,
                "data_seed": seed + index,
                "attack_seed": seed + 100 + index,
            }
            for index, spectrum in enumerate(workloads.values())
        ),
        x_label="workload (0=two-level, 1=decaying)",
        metadata={"workloads": list(workloads), "noise_std": noise_std},
    )


def ablation_covariance_spec(
    *,
    sample_sizes: Sequence[int] = (100, 200, 500, 1000, 2000, 5000),
    n_attributes: int = 40,
    n_principal: int = 5,
    noise_std: float = 5.0,
    seed: int = 42,
) -> ExperimentSpec:
    """A3 — Theorem-5.1 estimated covariance vs the oracle, across n."""
    sizes = [int(n) for n in sample_sizes]
    if not sizes:
        raise ConfigurationError("'sample_sizes' must be non-empty")
    spectrum = two_level_spectrum(
        n_attributes,
        n_principal,
        total_variance=100.0 * n_attributes,
        non_principal_value=4.0,
    )
    return ExperimentSpec(
        name="ablation-covariance",
        task=_COVARIANCE_TASK,
        points=tuple(
            {
                "spectrum": np.asarray(spectrum).tolist(),
                "n_records": n,
                "noise_std": noise_std,
                "data_seed": seed + index,
                "noise_seed": seed + 50 + index,
            }
            for index, n in enumerate(sizes)
        ),
        x_values=[float(n) for n in sizes],
        x_label="records (n)",
        metadata={
            "m": n_attributes,
            "p": n_principal,
            "noise_std": noise_std,
        },
    )


def ablation_samplesize_spec(
    *,
    sample_sizes: Sequence[int] = (100, 250, 500, 1000, 2500, 5000, 10000),
    n_attributes: int = 50,
    n_principal: int = 5,
    noise_std: float = 5.0,
    seed: int = 42,
) -> ExperimentSpec:
    """A4 — attack accuracy vs the number of published records."""
    sizes = [int(n) for n in sample_sizes]
    if not sizes:
        raise ConfigurationError("'sample_sizes' must be non-empty")
    spectrum = two_level_spectrum(
        n_attributes,
        n_principal,
        total_variance=100.0 * n_attributes,
        non_principal_value=4.0,
    )
    return ExperimentSpec(
        name="ablation-samplesize",
        task=_SAMPLESIZE_TASK,
        points=tuple(
            {
                "spectrum": np.asarray(spectrum).tolist(),
                "n_records": n,
                "noise_std": noise_std,
                "data_seed": seed + index,
                "attack_seed": seed + 10 + index,
            }
            for index, n in enumerate(sizes)
        ),
        x_values=[float(n) for n in sizes],
        x_label="records (n)",
        metadata={
            "m": n_attributes,
            "p": n_principal,
            "noise_std": noise_std,
        },
    )


def ablation_utility_spec(
    *,
    n_train: int = 6000,
    n_test: int = 3000,
    n_attributes: int = 8,
    noise_std: float = 4.0,
    seed: int = 0,
) -> ExperimentSpec:
    """A5 — naive-Bayes utility under the baseline and improved schemes."""
    scheme_names = ["iid", "correlated"]
    return ExperimentSpec(
        name="ablation-utility",
        task=_UTILITY_TASK,
        points=tuple(
            {
                "scheme": scheme,
                "scheme_index": index,
                "n_train": n_train,
                "n_test": n_test,
                "n_attributes": n_attributes,
                "noise_std": noise_std,
                "seed": seed,
            }
            for index, scheme in enumerate(scheme_names)
        ),
        x_label="scheme (0=iid, 1=correlated)",
        metadata={"noise_std": noise_std, "m": n_attributes},
    )


def ablation_marginals_spec(
    *,
    marginals: Sequence[str] = ("normal", "lognormal", "uniform", "bimodal"),
    n_attributes: int = 30,
    n_principal: int = 4,
    n_records: int = 2000,
    noise_std: float = 5.0,
    seed: int = 11,
) -> ExperimentSpec:
    """A6 — non-normal marginals (Section 6's normality assumption)."""
    shapes = list(marginals)
    if not shapes:
        raise ConfigurationError("'marginals' must be non-empty")
    spectrum = two_level_spectrum(
        n_attributes,
        n_principal,
        total_variance=float(n_attributes),
        non_principal_value=0.04,
    )
    return ExperimentSpec(
        name="ablation-marginals",
        task=_MARGINALS_TASK,
        points=tuple(
            {
                "spectrum": np.asarray(spectrum).tolist(),
                "marginal": shape,
                "n_records": n_records,
                "noise_std": noise_std,
                "copula_seed": seed,
                "sample_seed": seed + index + 1,
                "attack_seed": seed + 50 + index,
            }
            for index, shape in enumerate(shapes)
        ),
        x_label="marginal shape index",
        metadata={
            "marginals": shapes,
            "noise_std": noise_std,
            "m": n_attributes,
        },
    )


#: By-name catalog of the built-in spec builders.
BUILTIN_SPECS: dict[str, Callable[..., ExperimentSpec]] = {
    "figure1": figure1_spec,
    "figure2": figure2_spec,
    "figure3": figure3_spec,
    "figure4": figure4_spec,
    "theorem52": theorem52_spec,
    "ablation-selection": ablation_selection_spec,
    "ablation-covariance": ablation_covariance_spec,
    "ablation-samplesize": ablation_samplesize_spec,
    "ablation-utility": ablation_utility_spec,
    "ablation-marginals": ablation_marginals_spec,
}


def builtin_spec(name: str, *args: Any, **kwargs: Any) -> ExperimentSpec:
    """Build a built-in spec by experiment name."""
    try:
        builder = BUILTIN_SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown built-in experiment {name!r}; available: "
            f"{sorted(BUILTIN_SPECS)}"
        ) from None
    return builder(*args, **kwargs)
