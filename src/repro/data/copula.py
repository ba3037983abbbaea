"""Gaussian-copula generator: fixed correlation, non-normal marginals.

Section 6 assumes multivariate-normal data and notes the assumption "can
be relaxed".  Testing that relaxation needs data whose *correlation
structure* matches the paper's synthetic methodology while the *marginal
shapes* do not.  A Gaussian copula provides exactly that: draw latent
multivariate-normal rows, push each coordinate through the standard
normal CDF to a uniform, then through the inverse CDF of the target
marginal.  Monotone transforms preserve rank correlations, so the
dependence structure survives while skew/multi-modality appear.

Marginals: ``"normal"`` (identity — sanity baseline), ``"lognormal"``
(right-skewed, like income), ``"uniform"`` (light-tailed), ``"bimodal"``
(two clusters, like a mixed-population biomarker).  All outputs are
standardized to mean 0 and a chosen per-attribute standard deviation so
attack errors are comparable across shapes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.covariance_builder import CovarianceModel
from repro.exceptions import ValidationError
from repro.linalg.covariance import correlation_from_covariance
from repro.registry import check_spec, register_dataset
from repro.stats.mvn import MultivariateNormal
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["GaussianCopulaGenerator"]

_MARGINALS = ("normal", "lognormal", "uniform", "bimodal")

# Lognormal shape parameter: exp(s * Z).  s = 0.8 gives visible skew
# (skewness ~ 3.7) without extreme outliers dominating RMSE.
_LOGNORMAL_SHAPE = 0.8
# Bimodal mixture: modes at +-delta with component std 0.4, balanced.
_BIMODAL_DELTA = 1.0
_BIMODAL_STD = 0.4


@register_dataset("copula")
class GaussianCopulaGenerator:
    """Correlated tables with chosen marginal shapes.

    Parameters
    ----------
    correlation:
        Latent correlation matrix, shape ``(m, m)``.
    marginal:
        One of ``"normal"``, ``"lognormal"``, ``"uniform"``,
        ``"bimodal"``.
    target_std:
        Standard deviation every output attribute is scaled to.
    """

    def __init__(self, correlation, *, marginal: str = "normal",
                 target_std: float = 1.0):
        corr = np.asarray(correlation, dtype=np.float64)
        corr = correlation_from_covariance(corr)
        if marginal not in _MARGINALS:
            raise ValidationError(
                f"marginal must be one of {_MARGINALS}, got {marginal!r}"
            )
        self._corr = corr
        self._marginal = marginal
        self._target_std = check_in_range(
            target_std, "target_std", low=0.0, inclusive_low=False
        )
        self._latent = MultivariateNormal(
            np.zeros(corr.shape[0]), corr
        )

    @classmethod
    def from_spectrum(
        cls,
        spectrum,
        *,
        marginal: str = "normal",
        target_std: float = 1.0,
        rng=None,
    ) -> "GaussianCopulaGenerator":
        """Latent correlation built by the paper's reverse construction.

        The spectrum controls how concentrated the latent correlation is
        (exactly as in Section 7.1); the resulting covariance is
        normalized to a correlation matrix before use.
        """
        model = CovarianceModel.from_spectrum(spectrum, rng)
        return cls(
            correlation_from_covariance(model.matrix),
            marginal=marginal,
            target_std=target_std,
        )

    @property
    def n_attributes(self) -> int:
        """Number of generated attributes."""
        return int(self._corr.shape[0])

    @property
    def marginal(self) -> str:
        """The configured marginal shape."""
        return self._marginal

    @property
    def latent_correlation(self) -> np.ndarray:
        """The copula's latent correlation matrix (copy)."""
        return self._corr.copy()

    def to_spec(self) -> dict:
        # Always emit the realized correlation matrix, so round-trips
        # are exact even for instances built via from_spectrum.
        return {
            "kind": "copula",
            "correlation": self._corr.tolist(),
            "marginal": self._marginal,
            "target_std": self._target_std,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "GaussianCopulaGenerator":
        check_spec(
            spec,
            "copula",
            optional=(
                "correlation",
                "spectrum",
                "basis_seed",
                "marginal",
                "target_std",
            ),
        )
        has_corr = "correlation" in spec
        has_spectrum = "spectrum" in spec
        if has_corr == has_spectrum:
            raise ValidationError(
                "copula spec needs exactly one of 'correlation' and "
                "'spectrum'"
            )
        marginal = spec.get("marginal", "normal")
        target_std = float(spec.get("target_std", 1.0))
        if has_corr:
            if "basis_seed" in spec:
                raise ValidationError(
                    "'basis_seed' only applies to spectrum-based copula "
                    "specs"
                )
            return cls(
                np.asarray(spec["correlation"], dtype=np.float64),
                marginal=marginal,
                target_std=target_std,
            )
        return cls.from_spectrum(
            np.asarray(spec["spectrum"], dtype=np.float64),
            marginal=marginal,
            target_std=target_std,
            rng=int(spec.get("basis_seed", 0)),
        )

    def sample(self, n_records: int, rng=None) -> np.ndarray:
        """Draw ``n_records`` rows, shape ``(n_records, m)``.

        Every attribute has mean ~0 and standard deviation
        ``target_std`` exactly in population (standardization constants
        are analytic, not estimated from the draw).
        """
        n = check_positive_int(n_records, "n_records")
        generator = as_generator(rng)
        latent = self._latent.sample(n, generator)
        if self._marginal == "normal":
            return latent * self._target_std
        from scipy.special import ndtr

        uniforms = ndtr(latent)
        # Clip away exact 0/1 from floating point so inverse CDFs stay
        # finite.
        uniforms = np.clip(uniforms, 1e-12, 1.0 - 1e-12)
        raw = self._inverse_cdf(uniforms)
        mean, std = self._marginal_moments()
        return (raw - mean) / std * self._target_std

    # ------------------------------------------------------------------
    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        if self._marginal == "uniform":
            return u
        if self._marginal == "lognormal":
            from scipy.special import ndtri

            return np.exp(_LOGNORMAL_SHAPE * ndtri(u))
        # bimodal: numeric inverse of the mixture CDF on a fine grid.
        grid, cdf = _bimodal_cdf_grid()
        return np.interp(u, cdf, grid)

    def _marginal_moments(self) -> tuple[float, float]:
        """Analytic (mean, std) of the un-standardized marginal."""
        if self._marginal == "uniform":
            return 0.5, math.sqrt(1.0 / 12.0)
        if self._marginal == "lognormal":
            s2 = _LOGNORMAL_SHAPE**2
            mean = math.exp(s2 / 2.0)
            variance = (math.exp(s2) - 1.0) * math.exp(s2)
            return mean, math.sqrt(variance)
        # bimodal, symmetric around zero:
        variance = _BIMODAL_STD**2 + _BIMODAL_DELTA**2
        return 0.0, math.sqrt(variance)

    def __repr__(self) -> str:
        return (
            f"GaussianCopulaGenerator(m={self.n_attributes}, "
            f"marginal={self._marginal!r})"
        )


def _bimodal_cdf_grid(n_points: int = 4001) -> tuple[np.ndarray, np.ndarray]:
    """Grid and CDF of the balanced two-mode Gaussian mixture."""
    from scipy.special import ndtr

    span = _BIMODAL_DELTA + 6.0 * _BIMODAL_STD
    grid = np.linspace(-span, span, n_points)
    cdf = 0.5 * ndtr((grid + _BIMODAL_DELTA) / _BIMODAL_STD) + 0.5 * ndtr(
        (grid - _BIMODAL_DELTA) / _BIMODAL_STD
    )
    # Strictly increasing for interpolation.
    cdf = np.clip(cdf, 0.0, 1.0)
    return grid, cdf
