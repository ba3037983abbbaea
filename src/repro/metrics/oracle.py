"""Closed-form reconstruction errors: the paper's theorems as oracles.

Each function evaluates, from the population data covariance
``Sigma_x`` and the public noise covariance ``Sigma_r``, what an attack
that knows the population quantities attains on Gaussian data with
Gaussian noise.  The errors are per-cell mean squares, the square of
the RMSE the figures plot.

* :func:`udr_mse` — Theorem 4.1: attribute ``j`` alone is best guessed
  by its posterior mean, whose error is the posterior variance
  ``s_j v_j / (s_j + v_j)`` with ``s_j = Sigma_x[j, j]`` and
  ``v_j = Sigma_r[j, j]``.
* :func:`pca_dr_mse` — Theorem 5.2: projecting onto ``p`` eigenvectors
  ``Q_p`` of ``Sigma_x`` keeps the noise energy ``trace(Q_p^T Sigma_r
  Q_p)`` (``sigma^2 p`` for i.i.d. noise) and loses the discarded
  eigenvalues.
* :func:`bedr_mse` — Section 6 / Theorem 8.1: the posterior covariance
  ``A^-1 = Sigma_x - Sigma_x (Sigma_x + Sigma_r)^-1 Sigma_x`` is the
  Bayes estimate's error covariance, so its error is ``trace(A^-1) / m``.
* :func:`covariance_estimate_moments` — Theorem 5.1 / 8.2: ``Cov(Y) -
  Sigma_r`` is unbiased for ``Sigma_x``, with the entry variances of the
  Wishart law of ``Cov(Y)``.

An attack that estimates ``Sigma_x`` and the means from the disguised
data scores above its oracle in expectation, by an excess that shrinks
as ``n`` grows.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.eigen import sorted_eigh
from repro.utils.validation import check_positive_int, check_symmetric

__all__ = [
    "udr_mse",
    "pca_dr_mse",
    "bedr_mse",
    "covariance_estimate_moments",
]


def _pair(data_covariance, noise_covariance) -> tuple[np.ndarray, np.ndarray]:
    sigma_x = check_symmetric(data_covariance, "data_covariance")
    sigma_r = check_symmetric(noise_covariance, "noise_covariance")
    if sigma_x.shape != sigma_r.shape:
        raise ValidationError(
            f"data covariance is {sigma_x.shape}, noise covariance is "
            f"{sigma_r.shape}"
        )
    return sigma_x, sigma_r


def udr_mse(data_covariance, noise_covariance) -> float:
    """Theorem 4.1's per-attribute posterior variance, averaged."""
    sigma_x, sigma_r = _pair(data_covariance, noise_covariance)
    signal, noise = np.diag(sigma_x), np.diag(sigma_r)
    if np.any(noise <= 0.0):
        raise ValidationError("noise variances must be positive")
    return float(np.mean(signal * noise / (signal + noise)))


def pca_dr_mse(data_covariance, noise_covariance, n_components=None) -> float:
    """Theorem 5.2: kept noise energy plus discarded signal, per cell.

    With ``n_components=p`` the projection keeps the top ``p``
    eigenvectors of ``Sigma_x``: ``(trace(Q_p^T Sigma_r Q_p) + sum of
    the other eigenvalues) / m``, which is ``sigma^2 p / m`` plus the
    discarded energy for i.i.d. noise.  By default each eigen-direction
    is kept exactly when its signal exceeds its noise, the smallest
    error of any projection onto eigenvectors of ``Sigma_x``.
    """
    sigma_x, sigma_r = _pair(data_covariance, noise_covariance)
    eigen = sorted_eigh(sigma_x)
    signal = np.clip(eigen.values, 0.0, None)
    noise = np.einsum("ik,ij,jk->k", eigen.vectors, sigma_r, eigen.vectors)
    if n_components is None:
        kept = signal > noise
    else:
        p = check_positive_int(n_components, "n_components")
        if p > signal.size:
            raise ValidationError(
                f"n_components={p} exceeds the {signal.size} attributes"
            )
        kept = np.arange(signal.size) < p
    return float((noise[kept].sum() + signal[~kept].sum()) / signal.size)


def bedr_mse(data_covariance, noise_covariance) -> float:
    """Section 6 / Theorem 8.1 posterior trace ``trace(A^-1) / m``."""
    sigma_x, sigma_r = _pair(data_covariance, noise_covariance)
    gain = np.linalg.solve(sigma_x + sigma_r, sigma_x)
    return float(np.trace(sigma_x - sigma_x @ gain) / sigma_x.shape[0])


def covariance_estimate_moments(
    data_covariance, noise_covariance, n_records: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and entry variances of the Theorem 5.1 / 8.2 estimate.

    ``Cov(Y) - Sigma_r`` (``ddof=1``, before PSD repair) has mean
    ``Sigma_x``.  For Gaussian ``Y`` its entry ``(i, j)`` has variance
    ``(Sigma_y[i, i] Sigma_y[j, j] + Sigma_y[i, j]^2) / (n - 1)`` with
    ``Sigma_y = Sigma_x + Sigma_r``, from the Wishart law of ``(n - 1)
    Cov(Y)``.
    """
    sigma_x, sigma_r = _pair(data_covariance, noise_covariance)
    n = check_positive_int(n_records, "n_records", minimum=2)
    sigma_y = sigma_x + sigma_r
    diagonal = np.diag(sigma_y)
    variance = (np.outer(diagonal, diagonal) + sigma_y**2) / (n - 1)
    return sigma_x, variance
