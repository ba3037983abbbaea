"""SF — Spectral Filtering, the Kargupta et al. baseline (ICDM 2003).

The prior-art attack the paper compares against.  Like PCA-DR it projects
the disguised data onto a signal subspace, but it separates signal from
noise using random-matrix theory instead of the corrected eigen-spectrum:

1. Eigendecompose the sample covariance of the *disguised* data (no
   Theorem-5.1 correction), shared with the other attacks through
   :class:`~repro.linalg.statistics.DisguisedStatistics`.
2. Random-matrix theory (Marchenko-Pastur) bounds the eigenvalues a pure
   i.i.d.-noise covariance can produce from ``n`` samples in ``m``
   dimensions: ``lambda in sigma^2 * (1 +- sqrt(m/n))^2``.
3. Eigenvalues above the noise upper bound must carry signal; project the
   disguised data onto their eigenvectors.

The paper observes (Sections 7.2 and 8.2) that SF's bounds are derived
for *independent* noise with well-separated spectra, so it degrades when
non-principal eigenvalues are large and behaves irregularly under the
correlated-noise defense — both behaviours fall out of this
implementation naturally.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.reconstruction.base import (
    AffineMap,
    ReconstructionResult,
    Reconstructor,
)
from repro.registry import check_spec, register_attack
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["marchenko_pastur_bounds", "SpectralFilteringReconstructor"]


def marchenko_pastur_bounds(
    variance: float, n_records: int, n_attributes: int
) -> tuple[float, float]:
    """Eigenvalue support of an i.i.d.-noise sample covariance.

    For an ``(n, m)`` matrix of i.i.d. zero-mean entries with variance
    ``sigma^2``, the sample-covariance eigenvalues converge to the
    Marchenko-Pastur interval

        [ sigma^2 (1 - sqrt(m/n))^2 ,  sigma^2 (1 + sqrt(m/n))^2 ].

    These are the ``lambda_min/lambda_max`` bounds SF uses to decide which
    disguised-covariance eigenstates are pure noise.

    Parameters
    ----------
    variance:
        Noise variance ``sigma^2``.
    n_records, n_attributes:
        Sample dimensions ``n`` and ``m``.

    Returns
    -------
    tuple of float
        ``(lower, upper)`` eigenvalue bounds.
    """
    check_in_range(variance, "variance", low=0.0)
    n = check_positive_int(n_records, "n_records")
    m = check_positive_int(n_attributes, "n_attributes")
    ratio = math.sqrt(m / n)
    lower = variance * (1.0 - ratio) ** 2
    upper = variance * (1.0 + ratio) ** 2
    return lower, upper


@register_attack("sf")
class SpectralFilteringReconstructor(Reconstructor):
    """Kargupta et al.'s spectral-filtering attack.

    Parameters
    ----------
    tolerance:
        Multiplicative slack on the noise upper bound (eigenvalues must
        exceed ``upper * (1 + tolerance)`` to count as signal); absorbs
        finite-sample fluctuation above the asymptotic MP edge.
    """

    name = "SF"

    def __init__(self, *, tolerance: float = 0.05):
        self._tolerance = check_in_range(tolerance, "tolerance", low=0.0)

    @property
    def tolerance(self) -> float:
        """Slack applied to the Marchenko-Pastur upper edge."""
        return self._tolerance

    def to_spec(self) -> dict:
        """JSON-safe registry spec (``{"kind": ..., ...}``) of this attack."""
        return {"kind": "sf", "tolerance": self._tolerance}

    @classmethod
    def from_spec(cls, spec: dict) -> "SpectralFilteringReconstructor":
        """Rebuild the attack from a :meth:`to_spec` dict."""
        check_spec(spec, "sf", optional=("tolerance",))
        return cls(tolerance=float(spec.get("tolerance", 0.05)))

    def _reconstruct(
        self,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        n, m = statistics.n_records, statistics.n_attributes
        if n < 2:
            raise ValidationError("SF needs at least 2 records")
        # SF was derived for i.i.d. noise; when the publisher uses
        # correlated noise the attacker still plugs in the average
        # per-attribute variance — exactly the model mismatch that makes
        # SF erratic in the paper's Figure 4.
        variance = float(np.mean(np.diag(noise_model.covariance)))
        lower, upper = marchenko_pastur_bounds(variance, n, m)
        threshold = upper * (1.0 + self._tolerance)

        decomposition = statistics.covariance_eigen
        n_signal = int(np.sum(decomposition.values > threshold))
        # An empty signal subspace would return the all-means table; keep
        # the strongest direction instead, matching SF implementations
        # that always retain at least one component.
        n_signal = max(n_signal, 1)
        projector = decomposition.projector(n_signal)

        column_means = statistics.column_means
        return ReconstructionResult(
            affine=AffineMap(
                statistics, projector, column_means, center=column_means
            ),
            method=self.name,
            details={
                "n_signal": n_signal,
                "noise_bounds": (lower, upper),
                "threshold": threshold,
                "eigenvalues": decomposition.values,
            },
        )

    def __repr__(self) -> str:
        return f"SpectralFilteringReconstructor(tolerance={self._tolerance:g})"
