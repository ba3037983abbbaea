"""BE-DR — Bayes-Estimate-based Data Reconstruction (Section 6, Theorem 8.1).

Model the original records as draws from ``N(mu_x, Sigma_x)`` and the
noise as ``N(0, Sigma_r)``; the posterior ``P(x | y)`` is Gaussian and its
maximizer (= posterior mean) is the reconstruction:

* i.i.d. noise, Eq. (11):
  ``x_hat = (Sigma_x^-1 + I/sigma^2)^-1 (Sigma_x^-1 mu_x + y/sigma^2)``
* correlated noise, Theorem 8.1:
  ``x_hat = (Sigma_x^-1 + Sigma_r^-1)^-1
            (Sigma_x^-1 mu_x - Sigma_r^-1 mu_r + Sigma_r^-1 y)``

Eq. (11) is the special case ``Sigma_r = sigma^2 I``, ``mu_r = 0``; the
implementation uses the general form throughout, so the same class
attacks both the baseline and the improved randomization scheme.

The adversary inputs are all public: ``Sigma_x`` comes from Theorem 5.1 /
8.2 (disguised covariance minus noise covariance) and ``mu_x ~= mu_y``
because the noise is zero-mean (Section 6.1, step 2).  Both, with
``Sigma_x``'s eigenvectors and ``Sigma_r^-1``, are read from the
dataset's shared :class:`~repro.linalg.statistics.DisguisedStatistics`.

BE-DR uses *all* directions — principal and non-principal — weighted by
their signal-to-noise ratio, which is why it dominates PCA-DR everywhere
and degrades gracefully to UDR as correlations vanish (Section 7.4).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.psd import psd_inverse
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.registry import check_spec, register_attack
from repro.utils.validation import check_symmetric, check_vector

__all__ = ["BayesEstimateReconstructor"]


@register_attack("be-dr")
class BayesEstimateReconstructor(Reconstructor):
    """The paper's Bayes-estimate reconstruction attack.

    Parameters
    ----------
    oracle_covariance:
        Optional true data covariance for ablations (the deployed attack
        estimates it from the disguised data).
    oracle_mean:
        Optional true data mean for ablations (the deployed attack uses
        the disguised-data column means).
    covariance_estimator:
        ``"sample"`` (Theorem 5.1) or ``"ledoit-wolf"`` (shrinkage;
        sharper posterior inputs at small sample sizes).
    """

    name = "BE-DR"

    def __init__(
        self,
        *,
        oracle_covariance=None,
        oracle_mean=None,
        covariance_estimator: str = "sample",
    ):
        if oracle_covariance is not None:
            oracle_covariance = check_symmetric(
                oracle_covariance, "oracle_covariance"
            )
        self._oracle_covariance = oracle_covariance
        if oracle_mean is not None:
            oracle_mean = check_vector(oracle_mean, "oracle_mean")
        self._oracle_mean = oracle_mean
        if covariance_estimator not in ("sample", "ledoit-wolf"):
            raise ValidationError(
                "covariance_estimator must be 'sample' or 'ledoit-wolf', "
                f"got {covariance_estimator!r}"
            )
        self._covariance_estimator = covariance_estimator

    def to_spec(self) -> dict:
        """JSON-safe registry spec (``{"kind": ..., ...}``) of this attack."""
        spec: dict = {
            "kind": "be-dr",
            "covariance_estimator": self._covariance_estimator,
        }
        if self._oracle_covariance is not None:
            spec["oracle_covariance"] = self._oracle_covariance.tolist()
        if self._oracle_mean is not None:
            spec["oracle_mean"] = self._oracle_mean.tolist()
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "BayesEstimateReconstructor":
        """Rebuild the attack from a :meth:`to_spec` dict."""
        check_spec(
            spec,
            "be-dr",
            optional=(
                "oracle_covariance",
                "oracle_mean",
                "covariance_estimator",
            ),
        )
        oracle_cov = spec.get("oracle_covariance")
        oracle_mean = spec.get("oracle_mean")
        return cls(
            oracle_covariance=(
                None
                if oracle_cov is None
                else np.asarray(oracle_cov, dtype=np.float64)
            ),
            oracle_mean=(
                None
                if oracle_mean is None
                else np.asarray(oracle_mean, dtype=np.float64)
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
            sigma_x = self._oracle_covariance
            precision_x = psd_inverse(sigma_x)
        else:
            sigma_x, decomposition = statistics.estimate(
                self._covariance_estimator
            )
            precision_x = psd_inverse(decomposition)

        if self._oracle_mean is not None:
            if self._oracle_mean.size != m:
                raise ValidationError(
                    f"oracle mean has length {self._oracle_mean.size}, "
                    f"data has {m} attributes"
                )
            mu_x = self._oracle_mean
        else:
            # mu_x ~= mu_y - mu_r: noise means are public (zero in the
            # paper's schemes, but subtracting costs nothing).
            mu_x = statistics.column_means - noise_model.mean

        precision_r = statistics.noise_precision

        # Posterior precision A = Sigma_x^-1 + Sigma_r^-1 (Theorem 8.1);
        # for iid noise this is Eq. (11)'s Sigma_x^-1 + I/sigma^2.
        posterior_precision = precision_x + precision_r
        posterior_covariance = psd_inverse(posterior_precision)

        # x_hat = A^-1 (Sigma_x^-1 mu_x - Sigma_r^-1 mu_r + Sigma_r^-1 y),
        # vectorized over all n records at once.
        constant = precision_x @ mu_x - precision_r @ noise_model.mean
        estimate = (
            disguised @ precision_r.T + constant
        ) @ posterior_covariance.T

        # The Gaussian posterior covariance is also the estimator's error
        # covariance, so the model-implied reconstruction MSE per cell is
        # trace(A^-1)/m; with the true Sigma_x this is the Bayes-optimal
        # (minimum achievable) MSE for the scheme.
        expected_mse = float(np.trace(posterior_covariance)) / m

        return ReconstructionResult(
            estimate=estimate,
            method=self.name,
            details={
                "estimated_covariance": sigma_x,
                "estimated_mean": mu_x,
                "posterior_covariance": posterior_covariance,
                "expected_mse": expected_mse,
                "used_oracle_covariance": self._oracle_covariance is not None,
            },
        )

    def __repr__(self) -> str:
        return (
            "BayesEstimateReconstructor("
            f"oracle_covariance={self._oracle_covariance is not None}, "
            f"oracle_mean={self._oracle_mean is not None})"
        )
