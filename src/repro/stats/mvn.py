"""Multivariate normal model with sampling, conditionals, and marginals.

Section 6 assumes the original data are multivariate normal; the
closed-form BE-DR (Eq. 11) and its correlated-noise variant (Theorem 8.1)
follow from the Gaussian posterior.  The conditional distribution here
also powers the partial-value-disclosure attack (Section 3, third factor;
Section 9 future work).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.psd import cholesky_with_jitter, psd_inverse
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_symmetric, check_vector

__all__ = ["MultivariateNormal"]


class MultivariateNormal:
    """An ``m``-dimensional normal distribution ``N(mean, covariance)``.

    Parameters
    ----------
    mean:
        Mean vector, shape ``(m,)``.
    covariance:
        Symmetric PSD covariance, shape ``(m, m)``.  Slightly indefinite
        inputs (from Theorem-5.1 estimation) should be repaired with
        :func:`repro.linalg.psd.nearest_psd` before constructing the model.
    """

    def __init__(self, mean, covariance):
        self._mean = check_vector(mean, "mean")
        self._cov = check_symmetric(covariance, "covariance")
        if self._cov.shape[0] != self._mean.size:
            raise ValidationError(
                f"mean has length {self._mean.size} but covariance is "
                f"{self._cov.shape[0]}x{self._cov.shape[0]}"
            )
        self._chol: np.ndarray | None = None
        self._precision: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, data, *, ddof: int = 1) -> "MultivariateNormal":
        """Maximum-likelihood fit (sample mean / covariance) to data rows."""
        from repro.linalg.covariance import sample_covariance, sample_mean

        matrix = check_matrix(data, "data", min_rows=2)
        return cls(sample_mean(matrix), sample_covariance(matrix, ddof=ddof))

    @classmethod
    def standard(cls, dim: int) -> "MultivariateNormal":
        """Standard normal ``N(0, I_dim)``."""
        return cls(np.zeros(dim), np.eye(dim))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Dimension ``m``."""
        return int(self._mean.size)

    @property
    def mean(self) -> np.ndarray:
        """Mean vector (copy)."""
        return self._mean.copy()

    @property
    def covariance(self) -> np.ndarray:
        """Covariance matrix (copy)."""
        return self._cov.copy()

    @property
    def precision(self) -> np.ndarray:
        """Inverse covariance (computed lazily, spectrally stabilized)."""
        if self._precision is None:
            self._precision = psd_inverse(self._cov)
        return self._precision.copy()

    def _cholesky(self) -> np.ndarray:
        if self._chol is None:
            self._chol = cholesky_with_jitter(self._cov)
        return self._chol

    # ------------------------------------------------------------------
    # Densities
    # ------------------------------------------------------------------
    def logpdf(self, x) -> np.ndarray:
        """Log density at one point ``(m,)`` or a batch ``(n, m)``."""
        points = np.asarray(x, dtype=np.float64)
        single = points.ndim == 1
        if single:
            batch = points.reshape(1, -1)
        else:
            batch = check_matrix(points, "x")
        if batch.shape[1] != self.dim:
            raise ValidationError(
                f"points have dimension {batch.shape[1]}, expected {self.dim}"
            )
        chol = self._cholesky()
        centered = batch - self._mean
        from scipy.linalg import solve_triangular

        # Solve L z = (x - mu)^T for the Mahalanobis term.
        z = solve_triangular(chol, centered.T, lower=True).T
        mahalanobis = np.einsum("ij,ij->i", z, z)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        log_norm = -0.5 * (self.dim * math.log(2.0 * math.pi) + log_det)
        result = log_norm - 0.5 * mahalanobis
        return float(result[0]) if single else result

    def pdf(self, x) -> np.ndarray:
        """Density at one point or a batch of points."""
        return np.exp(self.logpdf(x))

    def mahalanobis(self, x) -> np.ndarray:
        """Squared Mahalanobis distance of point(s) from the mean."""
        points = np.asarray(x, dtype=np.float64)
        single = points.ndim == 1
        batch = points.reshape(1, -1) if single else check_matrix(points, "x")
        from scipy.linalg import solve_triangular

        z = solve_triangular(
            self._cholesky(), (batch - self._mean).T, lower=True
        ).T
        distances = np.einsum("ij,ij->i", z, z)
        return float(distances[0]) if single else distances

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, size: int, rng=None) -> np.ndarray:
        """Draw ``size`` rows from the distribution, shape ``(size, m)``.

        This is the library's replacement for Matlab's ``mvnrnd``
        (Section 7.1, step 4 of the paper's methodology).
        """
        if size < 1:
            raise ValidationError(f"size must be >= 1, got {size}")
        generator = as_generator(rng)
        standard = generator.standard_normal((size, self.dim))
        values = standard @ self._cholesky().T
        values += self._mean
        return values

    # ------------------------------------------------------------------
    # Marginals and conditionals
    # ------------------------------------------------------------------
    def marginal(self, indices) -> "MultivariateNormal":
        """Marginal distribution over a subset of coordinates."""
        idx = _check_indices(indices, self.dim)
        return MultivariateNormal(
            self._mean[idx], self._cov[np.ix_(idx, idx)]
        )

    def condition(self, indices, values) -> "MultivariateNormal":
        """Distribution of the remaining coordinates given observed ones.

        Implements the Gaussian conditioning formula:

            mu_{a|b}  = mu_a + S_ab S_bb^{-1} (x_b - mu_b)
            S_{a|b}   = S_aa - S_ab S_bb^{-1} S_ba

        Parameters
        ----------
        indices:
            Coordinates that are observed (the leaked attributes).
        values:
            Observed values, same length as ``indices``.

        Returns
        -------
        MultivariateNormal
            Conditional distribution over the complementary coordinates in
            their original order.
        """
        observed = _check_indices(indices, self.dim)
        obs_values = check_vector(values, "values")
        if obs_values.size != observed.size:
            raise ValidationError(
                f"got {obs_values.size} values for {observed.size} indices"
            )
        if observed.size == self.dim:
            raise ValidationError(
                "cannot condition on every coordinate; nothing remains"
            )
        free = np.setdiff1d(np.arange(self.dim), observed)
        cov_bb = self._cov[np.ix_(observed, observed)]
        cov_ab = self._cov[np.ix_(free, observed)]
        cov_aa = self._cov[np.ix_(free, free)]
        bb_inverse = psd_inverse(cov_bb)
        gain = cov_ab @ bb_inverse
        mean = self._mean[free] + gain @ (obs_values - self._mean[observed])
        cov = cov_aa - gain @ cov_ab.T
        return MultivariateNormal(mean, (cov + cov.T) / 2.0)

    def __repr__(self) -> str:
        return f"MultivariateNormal(dim={self.dim})"


def _check_indices(indices, dim: int) -> np.ndarray:
    """Validate a list of distinct coordinate indices into range(dim)."""
    idx = np.asarray(indices, dtype=np.intp).ravel()
    if idx.size == 0:
        raise ValidationError("'indices' must be non-empty")
    if np.unique(idx).size != idx.size:
        raise ValidationError("'indices' contains duplicates")
    if idx.min() < 0 or idx.max() >= dim:
        raise ValidationError(
            f"'indices' must lie in [0, {dim - 1}], got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    return idx
