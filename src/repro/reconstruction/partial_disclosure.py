"""Partial-value-disclosure attack (Section 3, third factor; Section 9).

Section 3: "Knowing that the patient Alice has diabetes and heart
problems, we might be able to estimate the other information about her."
Section 9 lists "how partial knowledge of a disguised data set can
compromise privacy" as future work.  This reconstructor carries BE-DR
into that threat model.

Threat model: besides the disguised table and noise model, the adversary
knows the *exact* values of some attribute subset ``K`` for every record
(leaked through a side channel).  The reconstruction of the remaining
attributes ``U`` then conditions on two signals:

1. the leaked values, through the Gaussian conditional
   ``x_U | x_K ~ N(mu_cond, Sigma_cond)`` — this is where correlation
   between leaked and hidden attributes bites; and
2. the disguised values ``y_U = x_U + r_U``, exactly as in BE-DR.

For *correlated* noise there is a further inference the naive approach
misses: knowing ``x_K`` reveals the realized noise ``r_K = y_K - x_K``,
and correlated noise lets the adversary condition ``r_U`` on ``r_K``,
sharpening the effective noise model.  The implementation performs this
noise conditioning whenever the noise covariance has off-diagonal
structure, quantifying a side channel the paper's defense opens.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.psd import nearest_psd, psd_inverse
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.registry import check_spec, register_attack
from repro.stats.mvn import MultivariateNormal
from repro.utils.validation import check_matrix

__all__ = ["ConditionalDisclosureReconstructor"]


@register_attack("conditional")
class ConditionalDisclosureReconstructor(Reconstructor):
    """BE-DR with side-channel knowledge of some attributes.

    Parameters
    ----------
    known_indices:
        Attribute indices whose true values leaked.
    known_values:
        Leaked values, shape ``(n, len(known_indices))`` aligned with the
        disguised table's rows.
    oracle_covariance:
        Optional true covariance (ablations); estimated via Theorem 5.1 /
        8.2 otherwise.
    """

    name = "BE-DR+leak"

    def __init__(
        self,
        known_indices,
        known_values,
        *,
        oracle_covariance=None,
    ):
        indices = np.asarray(known_indices, dtype=np.intp).ravel()
        if indices.size == 0:
            raise ValidationError("'known_indices' must be non-empty")
        if np.unique(indices).size != indices.size:
            raise ValidationError("'known_indices' contains duplicates")
        self._known_indices = indices
        self._known_values = check_matrix(known_values, "known_values")
        if self._known_values.shape[1] != indices.size:
            raise ValidationError(
                f"known_values has {self._known_values.shape[1]} columns for "
                f"{indices.size} known indices"
            )
        self._oracle_covariance = oracle_covariance

    def to_spec(self) -> dict:
        """JSON-safe registry spec (``{"kind": ..., ...}``) of this attack."""
        spec: dict = {
            "kind": "conditional",
            "known_indices": self._known_indices.tolist(),
            "known_values": self._known_values.tolist(),
        }
        if self._oracle_covariance is not None:
            spec["oracle_covariance"] = np.asarray(
                self._oracle_covariance
            ).tolist()
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "ConditionalDisclosureReconstructor":
        """Rebuild the attack from a :meth:`to_spec` dict."""
        check_spec(
            spec,
            "conditional",
            required=("known_indices", "known_values"),
            optional=("oracle_covariance",),
        )
        oracle = spec.get("oracle_covariance")
        return cls(
            np.asarray(spec["known_indices"], dtype=np.intp),
            np.asarray(spec["known_values"], dtype=np.float64),
            oracle_covariance=(
                None if oracle is None else np.asarray(oracle, dtype=np.float64)
            ),
        )

    def _reconstruct(
        self,
        disguised: np.ndarray,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        n, m = disguised.shape
        known = self._known_indices
        if known.min() < 0 or known.max() >= m:
            raise ValidationError(
                f"known indices must lie in [0, {m - 1}]"
            )
        if self._known_values.shape[0] != n:
            raise ValidationError(
                f"known_values covers {self._known_values.shape[0]} records, "
                f"table has {n}"
            )
        hidden = np.setdiff1d(np.arange(m), known)
        if hidden.size == 0:
            # Everything leaked; reconstruction is exact.
            return ReconstructionResult(
                estimate=self._known_values.copy(),
                method=self.name,
                details={"n_known": int(known.size), "n_hidden": 0},
            )

        if self._oracle_covariance is not None:
            sigma_x = np.asarray(self._oracle_covariance, dtype=np.float64)
        else:
            sigma_x, _ = statistics.estimate()
        mu_x = statistics.column_means - noise_model.mean
        data_model = MultivariateNormal(mu_x, nearest_psd(sigma_x))

        # --- Step 1: condition the data prior on the leaked attributes.
        cov = data_model.covariance
        cov_kk = cov[np.ix_(known, known)]
        cov_hk = cov[np.ix_(hidden, known)]
        cov_hh = cov[np.ix_(hidden, hidden)]
        gain_x = cov_hk @ psd_inverse(nearest_psd(cov_kk))
        cond_cov_x = nearest_psd(cov_hh - gain_x @ cov_hk.T)
        # Per-record conditional prior means (n, |U|).
        deviations = self._known_values - mu_x[known]
        cond_mean_x = mu_x[hidden] + deviations @ gain_x.T

        # --- Step 2: condition the noise model on the revealed noise
        # r_K = y_K - x_K (informative only for correlated noise).
        noise_cov = noise_model.covariance
        r_known = (
            disguised[:, known] - self._known_values
        ) - noise_model.mean[known]
        ncov_kk = noise_cov[np.ix_(known, known)]
        ncov_hk = noise_cov[np.ix_(hidden, known)]
        ncov_hh = noise_cov[np.ix_(hidden, hidden)]
        if np.allclose(ncov_hk, 0.0, atol=1e-12):
            cond_mean_r = np.tile(noise_model.mean[hidden], (n, 1))
            cond_cov_r = ncov_hh
        else:
            gain_r = ncov_hk @ psd_inverse(nearest_psd(ncov_kk))
            cond_mean_r = noise_model.mean[hidden] + r_known @ gain_r.T
            cond_cov_r = nearest_psd(ncov_hh - gain_r @ ncov_hk.T)

        # --- Step 3: Theorem 8.1 on the hidden block with the per-record
        # conditional prior and conditional noise.
        precision_x = psd_inverse(cond_cov_x)
        precision_r = psd_inverse(cond_cov_r)
        posterior_cov = psd_inverse(precision_x + precision_r)
        rhs = (
            cond_mean_x @ precision_x.T
            + (disguised[:, hidden] - cond_mean_r) @ precision_r.T
        )
        hidden_estimate = rhs @ posterior_cov.T

        estimate = np.empty_like(disguised)
        estimate[:, known] = self._known_values
        estimate[:, hidden] = hidden_estimate
        return ReconstructionResult(
            estimate=estimate,
            method=self.name,
            details={
                "n_known": int(known.size),
                "n_hidden": int(hidden.size),
                "noise_conditioning": bool(
                    not np.allclose(ncov_hk, 0.0, atol=1e-12)
                ),
            },
        )

    def __repr__(self) -> str:
        return (
            "ConditionalDisclosureReconstructor("
            f"n_known={self._known_indices.size})"
        )
