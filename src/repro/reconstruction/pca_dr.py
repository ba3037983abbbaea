"""PCA-DR — PCA-based Data Reconstruction (Section 5).

Procedure (Section 5.2.2):

1. Estimate the original covariance from the disguised data via
   Theorem 5.1 (subtract the noise covariance; for i.i.d. noise that is
   ``sigma^2`` off the diagonal).
2. Eigendecompose ``C = Q Lambda Q^T`` with eigenvalues descending.
   Steps 1-2 are read from the dataset's shared
   :class:`~repro.linalg.statistics.DisguisedStatistics`, which BE-DR
   uses too.
3. Choose the number of principal components ``p`` (largest-gap rule by
   default, per the paper's footnote).
4. Reconstruct ``X_hat = Y Q_p Q_p^T`` on column-centered data, adding
   the column means back afterwards (PCA's zero-mean requirement,
   Section 5.1.1).

Why it works: independent noise spreads its variance evenly across all
``m`` eigen-directions, so discarding ``m - p`` of them removes a
``(m - p)/m`` share of the noise (Theorem 5.2: the surviving noise MSE is
``sigma^2 * p / m``) while losing little signal when the data are highly
correlated.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.eigen import sorted_eigh
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.reconstruction.selection import (
    ComponentSelector,
    LargestGapSelector,
    selector_from_spec,
)
from repro.registry import check_spec, register_attack
from repro.utils.validation import check_symmetric

__all__ = ["PCAReconstructor"]


@register_attack("pca-dr")
class PCAReconstructor(Reconstructor):
    """The paper's PCA-based reconstruction attack.

    Parameters
    ----------
    selector:
        Component-selection strategy; defaults to the largest-gap rule
        used in the paper's experiments.
    oracle_covariance:
        Optional true data covariance.  When given, step 1 is skipped and
        the attack uses this matrix directly — the simplification the
        paper's analysis makes in Section 5.3 ("we only analyze PCA-DR
        using covariance matrix from the original data").  Real
        adversaries never have this; it exists for the estimated-vs-true
        ablation.
    covariance_estimator:
        ``"sample"`` (Theorem 5.1, the paper's estimator) or
        ``"ledoit-wolf"`` (shrinkage; sharper at small sample sizes).
    """

    name = "PCA-DR"

    def __init__(
        self,
        selector: ComponentSelector | None = None,
        *,
        oracle_covariance=None,
        covariance_estimator: str = "sample",
    ):
        if selector is None:
            selector = LargestGapSelector()
        if not isinstance(selector, ComponentSelector):
            raise ValidationError(
                "selector must be a ComponentSelector, got "
                f"{type(selector).__name__}"
            )
        self._selector = selector
        if oracle_covariance is not None:
            oracle_covariance = check_symmetric(
                oracle_covariance, "oracle_covariance"
            )
        self._oracle_covariance = oracle_covariance
        if covariance_estimator not in ("sample", "ledoit-wolf"):
            raise ValidationError(
                "covariance_estimator must be 'sample' or 'ledoit-wolf', "
                f"got {covariance_estimator!r}"
            )
        self._covariance_estimator = covariance_estimator

    @property
    def selector(self) -> ComponentSelector:
        """The component-selection strategy in use."""
        return self._selector

    def to_spec(self) -> dict:
        """JSON-safe registry spec (``{"kind": ..., ...}``) of this attack."""
        spec: dict = {
            "kind": "pca-dr",
            "selector": self._selector.to_spec(),
            "covariance_estimator": self._covariance_estimator,
        }
        if self._oracle_covariance is not None:
            spec["oracle_covariance"] = self._oracle_covariance.tolist()
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "PCAReconstructor":
        """Rebuild the attack from a :meth:`to_spec` dict."""
        check_spec(
            spec,
            "pca-dr",
            optional=("selector", "oracle_covariance", "covariance_estimator"),
        )
        selector = (
            selector_from_spec(spec["selector"])
            if "selector" in spec
            else None
        )
        oracle = spec.get("oracle_covariance")
        return cls(
            selector,
            oracle_covariance=(
                None if oracle is None else np.asarray(oracle, dtype=np.float64)
            ),
            covariance_estimator=spec.get("covariance_estimator", "sample"),
        )

    def _reconstruct(
        self,
        disguised: np.ndarray,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        m = disguised.shape[1]
        if self._oracle_covariance is not None:
            if self._oracle_covariance.shape[0] != m:
                raise ValidationError(
                    f"oracle covariance is {self._oracle_covariance.shape[0]}"
                    f"-dimensional, data has {m} attributes"
                )
            decomposition = sorted_eigh(self._oracle_covariance)
        else:
            _, decomposition = statistics.estimate(self._covariance_estimator)
        n_components = self._selector.select(decomposition.values)
        projector = decomposition.projector(n_components)

        column_means = statistics.column_means
        estimate = (disguised - column_means) @ projector
        estimate += column_means

        return ReconstructionResult(
            estimate=estimate,
            method=self.name,
            details={
                "n_components": n_components,
                "eigenvalues": decomposition.values,
                "used_oracle_covariance": self._oracle_covariance is not None,
                "noise_mse_bound": self._noise_mse_bound(
                    noise_model, n_components, m
                ),
            },
        )

    @staticmethod
    def _noise_mse_bound(
        noise_model: NoiseModel, n_components: int, m: int
    ) -> float | None:
        """Theorem 5.2's residual-noise MSE ``sigma^2 * p / m``.

        Only defined for isotropic noise — the theorem's hypothesis.
        """
        if not noise_model.is_isotropic:
            return None
        return noise_model.scalar_variance * n_components / m

    def __repr__(self) -> str:
        oracle = self._oracle_covariance is not None
        return (
            f"PCAReconstructor(selector={self._selector!r}, "
            f"oracle_covariance={oracle})"
        )
