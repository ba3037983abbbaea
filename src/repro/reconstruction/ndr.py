"""NDR — Noise-Distribution-based Reconstruction (Section 4.1).

The naive guess: take the disguised value as the estimate, i.e. guess the
noise was zero.  Its mean square error is exactly the noise variance
(Section 4.1's derivation), making it the floor every smarter attack must
beat and a direct read-out of the nominal privacy level ``sigma^2``.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.registry import check_spec, register_attack

__all__ = ["NoiseDistributionReconstructor"]


@register_attack("ndr")
class NoiseDistributionReconstructor(Reconstructor):
    """Guess ``X_hat = Y`` (equivalently, guess the noise is zero).

    For non-zero-mean noise the announced mean is subtracted, keeping the
    estimator unbiased; for the paper's zero-mean schemes this is the
    identity.
    """

    name = "NDR"

    def to_spec(self) -> dict:
        """JSON-safe registry spec (``{"kind": ..., ...}``) of this attack."""
        return {"kind": "ndr"}

    @classmethod
    def from_spec(cls, spec: dict) -> "NoiseDistributionReconstructor":
        """Rebuild the attack from a :meth:`to_spec` dict."""
        check_spec(spec, "ndr")
        return cls()

    def _reconstruct(
        self,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        estimate = statistics.table - noise_model.mean
        expected_mse = float(np.mean(np.diag(noise_model.covariance)))
        return ReconstructionResult(
            estimate=estimate,
            method=self.name,
            details={"expected_mse": expected_mse},
        )
