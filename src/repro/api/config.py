"""Experiment configuration and result containers.

The sweep knobs and the series container are part of the public
:mod:`repro.api` surface.

Defaults are chosen to reproduce the paper's curve *shapes* at laptop
scale (the paper does not publish its exact sample counts):

* ``DEFAULT_NOISE_STD = 5`` — puts the NDR baseline at RMSE 5 and UDR in
  the 4.3-4.8 band the figures show.
* ``DEFAULT_VARIANCE_PER_ATTRIBUTE = 100`` — the trace is ``100 * m``
  at every sweep point (Eq. 12), keeping UDR flat like the figures.
* ``DEFAULT_RECORDS = 2000`` — large enough that Theorem 5.1's
  estimated covariance is close to the truth, small enough that every
  figure regenerates in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.serialization import values_equal
from repro.utils.validation import check_in_range, check_positive_int

__all__ = [
    "DEFAULT_NOISE_STD",
    "DEFAULT_RECORDS",
    "DEFAULT_VARIANCE_PER_ATTRIBUTE",
    "SweepConfig",
    "ExperimentSeries",
]

DEFAULT_NOISE_STD = 5.0
DEFAULT_RECORDS = 2000
DEFAULT_VARIANCE_PER_ATTRIBUTE = 100.0


@dataclass(frozen=True)
class SweepConfig:
    """Shared knobs for the figure-regenerating sweeps.

    Attributes
    ----------
    n_records:
        Rows per generated dataset.
    noise_std:
        Per-attribute noise standard deviation ``sigma`` of the baseline
        i.i.d. scheme (Experiment 4 re-uses ``m * sigma^2`` as the total
        correlated-noise power).
    variance_per_attribute:
        Average attribute variance; the spectrum trace is this times
        ``m`` (Eq. 12's UDR-flattening constraint).
    non_principal_value:
        The small eigenvalue of the two-level spectra.
    n_trials:
        Independent repetitions averaged per sweep point (fresh data,
        noise, and eigenbasis each trial).
    seed:
        Root seed; trials and sweep points get independent spawned
        generators, so adding sweep points never reshuffles existing
        ones.
    """

    n_records: int = DEFAULT_RECORDS
    noise_std: float = DEFAULT_NOISE_STD
    variance_per_attribute: float = DEFAULT_VARIANCE_PER_ATTRIBUTE
    non_principal_value: float = 4.0
    n_trials: int = 1
    seed: int = 2005

    def __post_init__(self) -> None:
        check_positive_int(self.n_records, "n_records", minimum=2)
        check_in_range(
            self.noise_std, "noise_std", low=0.0, inclusive_low=False
        )
        check_in_range(
            self.variance_per_attribute,
            "variance_per_attribute",
            low=0.0,
            inclusive_low=False,
        )
        check_in_range(
            self.non_principal_value,
            "non_principal_value",
            low=0.0,
            inclusive_low=False,
        )
        check_positive_int(self.n_trials, "n_trials")
        check_positive_int(self.seed, "seed", minimum=0)

    def trace_for(self, n_attributes: int) -> float:
        """Spectrum trace at a sweep point with ``m`` attributes."""
        return self.variance_per_attribute * n_attributes


@dataclass(frozen=True, eq=False)
class ExperimentSeries:
    """The regenerated data behind one figure.

    Attributes
    ----------
    name:
        Experiment identifier, e.g. ``"figure1"``.
    x_label:
        Meaning of the sweep values (the figure's x-axis).
    x_values:
        Sweep positions, shape ``(k,)``.
    series:
        Method name to RMSE values, each shape ``(k,)`` — the figure's
        curves.
    metadata:
        Fixed parameters of the sweep (for the report header) and any
        per-point extras (e.g. Experiment 4's measured dissimilarities).
    """

    name: str
    x_label: str
    x_values: np.ndarray
    series: dict[str, np.ndarray]
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        x = np.asarray(self.x_values, dtype=np.float64)
        object.__setattr__(self, "x_values", x)
        converted = {}
        for key, values in self.series.items():
            array = np.asarray(values, dtype=np.float64)
            if array.shape != x.shape:
                raise ConfigurationError(
                    f"series {key!r} has shape {array.shape}, x-axis has "
                    f"{x.shape}"
                )
            converted[key] = array
        object.__setattr__(self, "series", converted)

    def __eq__(self, other: object) -> bool:
        # Array-aware equality (the generated one raises on ndarrays).
        if not isinstance(other, ExperimentSeries):
            return NotImplemented
        return (
            self.name == other.name
            and self.x_label == other.x_label
            and values_equal(self.x_values, other.x_values)
            and values_equal(self.series, other.series)
            and values_equal(self.metadata, other.metadata)
        )

    @property
    def methods(self) -> list[str]:
        """Curve names in insertion order."""
        return list(self.series)

    def curve(self, method: str) -> np.ndarray:
        """RMSE values of one method across the sweep."""
        try:
            return self.series[method]
        except KeyError:
            raise KeyError(
                f"no series {method!r}; available: {self.methods}"
            ) from None

    def final_gap(self, better: str, worse: str) -> float:
        """RMSE advantage of one method over another at the last point."""
        return float(self.curve(worse)[-1] - self.curve(better)[-1])

    def __repr__(self) -> str:
        return (
            f"ExperimentSeries(name={self.name!r}, "
            f"points={self.x_values.size}, methods={self.methods})"
        )
