"""UDR — Univariate-Distribution-based Reconstruction (Section 4.2).

The correlation-blind benchmark.  Each attribute is treated alone: given
the disguised value ``y``, the guess is the posterior mean

    E[x | y] = ( integral x f_X(x) f_R(y - x) dx ) / f_Y(y),

which Theorem 4.1 shows minimizes mean square error.  The prior ``f_X``
is not observed; the paper notes it "can be estimated from the disguised
data" via the Agrawal-Srikant reconstruction, and that algorithm
(:func:`repro.randomization.distribution_recon.reconstruct_distribution`)
is one of the prior sources here.

Prior sources
-------------
``"gaussian"`` (default)
    Moment-matched normal prior: mean from the disguised column, variance
    = disguised variance minus the noise variance (Theorem 5.1's diagonal
    entry).  With Gaussian noise the posterior mean is then the exact
    shrinkage ``mu + s/(s + sigma^2) * (y - mu)`` — the closed form the
    paper's multivariate-normal experiments imply for UDR.
``"reconstructed"``
    Run the Agrawal-Srikant iterative reconstruction per attribute and
    integrate over the resulting histogram — the fully non-parametric
    path, correct for non-Gaussian data.
``explicit``
    A sequence of :class:`~repro.stats.density.Density` priors, one per
    attribute (oracle experiments).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.randomization.distribution_recon import reconstruct_distribution
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.registry import check_spec, register_attack
from repro.stats.density import Density, GaussianDensity, UniformDensity
from repro.utils.validation import check_positive_int

__all__ = ["UnivariateReconstructor", "noise_marginal_density"]

_PRIOR_MODES = ("gaussian", "reconstructed")


def noise_marginal_density(noise_model: NoiseModel, attribute: int) -> Density:
    """Univariate noise density ``f_R`` for one attribute.

    Built from the public noise model: the marginal of a multivariate
    Gaussian is Gaussian with the diagonal variance; uniform noise is
    reconstructed from its variance (``half_width = std * sqrt(3)``).
    """
    variance = float(noise_model.covariance[attribute, attribute])
    mean = float(noise_model.mean[attribute])
    if variance <= 0.0:
        raise ValidationError(
            f"attribute {attribute} has non-positive noise variance"
        )
    std = math.sqrt(variance)
    if noise_model.family == "uniform":
        halfwidth = std * math.sqrt(3.0)
        return UniformDensity(mean - halfwidth, mean + halfwidth)
    return GaussianDensity(mean, std)


def _noise_marginal_moments(
    noise_model: NoiseModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of :func:`noise_marginal_density` per attribute.

    The same scalar arithmetic as building each density and reading its
    ``mean`` / ``variance``, so the values are bit-identical, without
    constructing ``m`` density objects.  (Python's ``x ** 2`` and
    numpy's differ in the last bit, hence the scalar loop.)
    """
    variances = np.diag(noise_model.covariance)
    bad = np.flatnonzero(variances <= 0.0)
    if bad.size:
        raise ValidationError(
            f"attribute {int(bad[0])} has non-positive noise variance"
        )
    uniform = noise_model.family == "uniform"
    means = []
    moments = []
    for mean, variance in zip(noise_model.mean.tolist(), variances.tolist()):
        std = math.sqrt(variance)
        if uniform:
            halfwidth = std * math.sqrt(3.0)
            low, high = mean - halfwidth, mean + halfwidth
            means.append((low + high) / 2.0)
            moments.append((high - low) ** 2 / 12.0)
        else:
            means.append(mean)
            moments.append(std**2)
    return np.array(means), np.array(moments)


@register_attack("udr")
class UnivariateReconstructor(Reconstructor):
    """The paper's UDR benchmark attack.

    Parameters
    ----------
    prior:
        ``"gaussian"``, ``"reconstructed"``, or a sequence of per-attribute
        :class:`Density` objects.
    n_grid:
        Integration-grid resolution for the non-closed-form paths.
    n_bins:
        Histogram resolution for the ``"reconstructed"`` prior.
    """

    name = "UDR"

    def __init__(
        self,
        prior="gaussian",
        *,
        n_grid: int = 257,
        n_bins: int = 64,
    ):
        if isinstance(prior, str):
            if prior not in _PRIOR_MODES:
                raise ValidationError(
                    f"prior must be one of {_PRIOR_MODES} or a sequence of "
                    f"densities, got {prior!r}"
                )
            self._prior_mode = prior
            self._prior_densities: tuple[Density, ...] | None = None
        else:
            if not isinstance(prior, Sequence) or not all(
                isinstance(d, Density) for d in prior
            ):
                raise ValidationError(
                    "explicit priors must be a sequence of Density objects"
                )
            self._prior_mode = "explicit"
            self._prior_densities = tuple(prior)
        self._n_grid = check_positive_int(n_grid, "n_grid", minimum=8)
        self._n_bins = check_positive_int(n_bins, "n_bins", minimum=2)

    @property
    def prior_mode(self) -> str:
        """Which prior source is configured."""
        return self._prior_mode

    def to_spec(self) -> dict:
        """JSON-safe registry spec (``{"kind": ..., ...}``) of this attack."""
        if self._prior_mode == "explicit":
            # Density objects are arbitrary code, not data.
            raise ValidationError(
                "UDR with explicit density priors is not spec-serializable;"
                " use the 'gaussian' or 'reconstructed' prior"
            )
        return {
            "kind": "udr",
            "prior": self._prior_mode,
            "n_grid": self._n_grid,
            "n_bins": self._n_bins,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "UnivariateReconstructor":
        """Rebuild the attack from a :meth:`to_spec` dict."""
        check_spec(
            spec, "udr", optional=("prior", "n_grid", "n_bins")
        )
        return cls(
            prior=spec.get("prior", "gaussian"),
            n_grid=int(spec.get("n_grid", 257)),
            n_bins=int(spec.get("n_bins", 64)),
        )

    def _reconstruct(
        self,
        disguised: np.ndarray,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        n, m = disguised.shape
        if self._prior_mode == "explicit" and len(self._prior_densities) != m:
            raise ValidationError(
                f"got {len(self._prior_densities)} explicit priors for "
                f"{m} attributes"
            )
        details: dict = {"prior_mode": self._prior_mode}
        if self._prior_mode == "gaussian":
            estimate = self._gaussian_posterior_mean(disguised, noise_model)
        else:
            estimate = np.empty_like(disguised)
            for j in range(m):
                column = disguised[:, j]
                noise = noise_marginal_density(noise_model, j)
                prior = self._prior_for(column, noise, j)
                estimate[:, j] = self._grid_posterior_mean(
                    column, prior, noise
                )
        return ReconstructionResult(
            estimate=estimate, method=self.name, details=details
        )

    # ------------------------------------------------------------------
    def _prior_for(self, column, noise: Density, attribute: int) -> Density:
        if self._prior_mode == "explicit":
            return self._prior_densities[attribute]
        return reconstruct_distribution(
            column, noise, n_bins=self._n_bins
        )

    @staticmethod
    def _gaussian_posterior_mean(
        disguised: np.ndarray, noise_model: NoiseModel
    ) -> np.ndarray:
        """Moment-matched Gaussian-prior posterior mean, all columns at once.

        Exact for Gaussian noise; for uniform noise the same linear
        shrinkage is the best *linear* estimator (it matches the first
        two moments), which is the standard benchmark behaviour.

        The column moments come from a contiguous transposed copy: each
        row of it reduces in the same order as the column alone, so
        every value equals the per-column computation bit for bit.
        """
        noise_mean, noise_var = _noise_marginal_moments(noise_model)
        columns = np.ascontiguousarray(disguised.T)
        prior_var = np.maximum(columns.var(axis=1) - noise_var, 0.0)
        prior_mean = columns.mean(axis=1) - noise_mean
        shrinkage = prior_var / (prior_var + noise_var)
        # prior_mean + shrinkage * (y - noise_mean - prior_mean), in place
        # on one (n, m) buffer.
        estimate = disguised - noise_mean
        estimate -= prior_mean
        estimate *= shrinkage
        estimate += prior_mean
        # Exact guard: prior_var is max(..., 0.0), so 0.0 is a computed
        # sentinel, not an approximate quantity.  Such an attribute is
        # pure noise as far as moments can tell: every posterior mean
        # collapses to the prior mean.
        degenerate = prior_var == 0.0  # repro: ignore[float-eq] degenerate guard
        if np.any(degenerate):
            estimate[:, degenerate] = prior_mean[degenerate]
        return estimate

    def _grid_posterior_mean(
        self, column: np.ndarray, prior: Density, noise: Density
    ) -> np.ndarray:
        """Numerical posterior mean over an integration grid.

        The grid covers the prior's support at very high coverage — a
        truncated prior biases the posterior mean for observations near
        the support edge — plus a pad proportional to the noise spread.
        """
        lo_p, hi_p = prior.support(1.0 - 1e-7)
        lo_r, hi_r = noise.support(0.9999)
        grid = np.linspace(lo_p - (hi_r - lo_r) * 0.05,
                           hi_p + (hi_r - lo_r) * 0.05,
                           self._n_grid)
        prior_values = prior.pdf(grid)
        # kernel[i, k] = f_R(y_i - grid_k); the uniform grid spacing
        # cancels between numerator and denominator.
        kernel = noise.pdf(column[:, None] - grid[None, :])
        weights = kernel * prior_values[None, :]
        denominator = weights.sum(axis=1)
        numerator = weights @ grid
        fallback = float(
            np.sum(prior_values * grid) / max(float(prior_values.sum()), 1e-300)
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            posterior_mean = np.where(
                denominator > 0.0, numerator / np.maximum(denominator, 1e-300),
                fallback,
            )
        return posterior_mean

    def __repr__(self) -> str:
        return (
            f"UnivariateReconstructor(prior={self._prior_mode!r}, "
            f"n_grid={self._n_grid})"
        )
