"""Covariance estimation, including the paper's Theorem 5.1 estimator.

Theorem 5.1: for disguised data ``Y = X + R`` with i.i.d. zero-mean noise
of variance ``sigma^2`` per attribute,

    Cov(Y)_ij = Cov(X)_ij + sigma^2 * [i == j],

so the adversary recovers ``Cov(X)`` by subtracting ``sigma^2`` from the
diagonal of the sample covariance of ``Y``.  Theorem 8.2 generalizes this
to correlated noise: ``Cov(Y) = Cov(X) + Cov(R)``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.eigen import sorted_eigh
from repro.linalg.psd import nearest_psd
from repro.utils.validation import check_matrix, check_symmetric, check_vector

__all__ = [
    "sample_mean",
    "sample_covariance",
    "ledoit_wolf_covariance",
    "covariance_from_disguised",
    "correlation_from_covariance",
]


def sample_mean(data) -> np.ndarray:
    """Column means of an ``(n, m)`` data matrix."""
    matrix = check_matrix(data, "data")
    return matrix.mean(axis=0)


def sample_covariance(data, *, ddof: int = 1) -> np.ndarray:
    """Sample covariance of an ``(n, m)`` data matrix (columns = attributes).

    The data is scanned for NaN / infinity only when a column mean is
    not finite.  A non-finite cell always makes its column's mean
    non-finite (and so that column's diagonal entry), so the same inputs
    raise the same :class:`~repro.exceptions.ValidationError` as a
    scan-first check, and finite data that overflows still returns
    ``inf`` with numpy's overflow warning.

    Parameters
    ----------
    data:
        Data matrix with at least ``ddof + 1`` rows.
    ddof:
        Delta degrees of freedom; 1 gives the unbiased estimator.
    """
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0 or matrix.shape[0] <= ddof:
        matrix = check_matrix(data, "data")
    n = matrix.shape[0]
    if n <= ddof:
        raise ValidationError(
            f"need more than ddof={ddof} rows to estimate covariance, got {n}"
        )
    # inf + -inf in a column is NaN: let the validator report it.
    with np.errstate(invalid="ignore"):
        means = matrix.mean(axis=0)
    if not np.isfinite(means).all():
        check_matrix(data, "data")
    centered = matrix - means
    cov = centered.T @ centered / (n - ddof)
    return (cov + cov.T) / 2.0


def ledoit_wolf_covariance(data) -> tuple[np.ndarray, float]:
    """Ledoit-Wolf shrinkage covariance estimate.

    Shrinks the sample covariance toward the scaled identity
    ``mu * I`` with the data-driven intensity of Ledoit & Wolf (2004,
    "A well-conditioned estimator for large-dimensional covariance
    matrices").  For the reconstruction attacks this matters in the
    small-sample regime (ablation A3): the raw Theorem-5.1 estimate is an
    unbiased but high-variance input to the eigendecomposition and matrix
    inverse, and shrinkage trades a little bias for much less variance.

    Parameters
    ----------
    data:
        Data matrix of shape ``(n, m)`` with ``n >= 2``.

    Returns
    -------
    (covariance, shrinkage):
        The shrunk estimate of shape ``(m, m)`` and the shrinkage
        intensity in ``[0, 1]`` (0 = pure sample covariance, 1 = pure
        scaled identity).
    """
    matrix = check_matrix(data, "data", min_rows=2)
    n, m = matrix.shape
    centered = matrix - matrix.mean(axis=0)
    # LW derivation uses the 1/n covariance.
    sample = centered.T @ centered / n
    mu = float(np.trace(sample)) / m
    # d^2: distance of the sample covariance from the target.
    d2 = float(np.sum((sample - mu * np.eye(m)) ** 2)) / m
    if d2 <= 0.0:
        return mu * np.eye(m), 1.0
    # b^2: estimation variance of the sample covariance.  Expanding
    # sum_k ||x_k x_k^T - S||_F^2 with S = (1/n) sum_k x_k x_k^T gives
    # the closed form sum_k (x_k . x_k)^2 - n ||S||_F^2 — O(n m) instead
    # of materializing per-record (m, m) outer products.  The expansion
    # subtracts two same-magnitude sums, so it matches the historical
    # blocked accumulation to ~1e-9 relative rather than bit-for-bit
    # (regression-pinned in tests/unit/test_hotpath_regression.py);
    # clip at zero in case rounding drives the difference negative.
    row_sq_norms = np.einsum("ij,ij->i", centered, centered)
    b2_sum = max(
        float(np.sum(row_sq_norms**2)) - n * float(np.sum(sample**2)),
        0.0,
    )
    b2 = min(b2_sum / (n * n * m), d2)
    shrinkage = b2 / d2
    shrunk = shrinkage * mu * np.eye(m) + (1.0 - shrinkage) * sample
    # Rescale to the unbiased (ddof=1) convention used elsewhere.
    shrunk *= n / (n - 1)
    return (shrunk + shrunk.T) / 2.0, float(shrinkage)


def covariance_from_disguised(
    disguised,
    noise_covariance,
    *,
    ensure_psd: bool = True,
    ddof: int = 1,
    estimator: str = "sample",
    covariance_y=None,
    return_decomposition: bool = False,
):
    """Estimate ``Cov(X)`` from disguised data (Theorems 5.1 / 8.2).

    Computes the sample covariance of the disguised data and subtracts the
    (known, public) noise covariance.  For the paper's baseline scheme the
    noise covariance is ``sigma^2 * I``; pass a scalar for that case.

    Parameters
    ----------
    disguised:
        The published data ``Y = X + R``, shape ``(n, m)``.
    noise_covariance:
        Either a scalar ``sigma^2`` (i.i.d. noise, Theorem 5.1), a length-m
        vector of per-attribute variances, or a full ``(m, m)`` covariance
        (Theorem 8.2).
    ensure_psd:
        Clip negative eigenvalues that arise from sampling error.  The
        paper's analysis assumes ``n`` large enough that the estimate is
        PSD; real samples are not so lucky.
    ddof:
        Passed to :func:`sample_covariance` (``estimator="sample"``).
    estimator:
        ``"sample"`` (the paper's estimator) or ``"ledoit-wolf"``
        (shrinkage toward the scaled identity; better conditioned at
        small ``n``, see :func:`ledoit_wolf_covariance`).
    covariance_y:
        ``Cov(Y)`` already computed from ``disguised`` by ``estimator``
        (e.g. shared by :class:`~repro.linalg.statistics.DisguisedStatistics`);
        skips estimating it again.
    return_decomposition:
        Also return the :func:`~repro.linalg.eigen.sorted_eigh`
        decomposition of the estimate, reusing the PSD repair's.

    Returns
    -------
    numpy.ndarray or (numpy.ndarray, EigenDecomposition)
        Estimated original covariance, shape ``(m, m)``, paired with its
        decomposition when ``return_decomposition`` is set.
    """
    if estimator not in ("sample", "ledoit-wolf"):
        raise ValidationError(
            "estimator must be 'sample' or 'ledoit-wolf', got "
            f"{estimator!r}"
        )
    if covariance_y is not None:
        cov_y = covariance_y
    else:
        matrix = check_matrix(disguised, "disguised")
        if estimator == "sample":
            cov_y = sample_covariance(matrix, ddof=ddof)
        else:
            cov_y, _ = ledoit_wolf_covariance(matrix)
    cov_r = _coerce_noise_covariance(noise_covariance, cov_y.shape[0])
    estimate = cov_y - cov_r
    if ensure_psd:
        return nearest_psd(estimate, return_decomposition=return_decomposition)
    if return_decomposition:
        return estimate, sorted_eigh(estimate)
    return estimate


def _coerce_noise_covariance(noise_covariance, m: int) -> np.ndarray:
    """Normalize scalar / vector / matrix noise specs to an (m, m) matrix."""
    if np.isscalar(noise_covariance):
        variance = float(noise_covariance)
        if variance < 0.0:
            raise ValidationError(
                f"noise variance must be non-negative, got {variance}"
            )
        return variance * np.eye(m)
    array = np.asarray(noise_covariance, dtype=np.float64)
    if array.ndim == 1:
        vector = check_vector(array, "noise_covariance")
        if vector.size != m:
            raise ValidationError(
                f"noise variance vector has length {vector.size}, "
                f"expected {m}"
            )
        if np.any(vector < 0.0):
            raise ValidationError("noise variances must be non-negative")
        return np.diag(vector)
    sym = check_symmetric(array, "noise_covariance")
    if sym.shape[0] != m:
        raise ValidationError(
            f"noise covariance is {sym.shape[0]}x{sym.shape[0]}, "
            f"expected {m}x{m}"
        )
    return sym


def correlation_from_covariance(covariance) -> np.ndarray:
    """Convert a covariance matrix to a correlation-coefficient matrix.

    Used by the Definition-8.1 dissimilarity metric.  Attributes with zero
    variance are rejected because their correlations are undefined.
    """
    cov = check_symmetric(covariance, "covariance")
    diagonal = np.diag(cov)
    if np.any(diagonal <= 0.0):
        raise ValidationError(
            "covariance has non-positive diagonal entries; correlations "
            "are undefined"
        )
    scale = 1.0 / np.sqrt(diagonal)
    corr = cov * np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)
