"""Reconstruction-error metrics — the paper's privacy measure.

"The difference between X* and X can be used as the measure to quantify
how much privacy is preserved" (Section 3).  All figures plot the root
mean square error over every cell of the table.

Validation contract: the inputs are coerced and shape-checked up front,
but scanned for NaN / infinity (by :func:`_paired`) only when the reduced
value is not finite.  A NaN or infinite cell in either input makes its
residual NaN or infinite, and squares are non-negative, so nothing can
cancel it: its column's mean, and the overall mean, are non-finite.  The
same inputs therefore raise the same
:class:`~repro.exceptions.ValidationError` as a scan-first check, and
finite inputs whose squares overflow still return ``inf`` (with numpy's
overflow warning).  A figure job's tables were already checked when its
dataset and reconstruction were built, so scoring them adds no scan.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.reconstruction.base import ReconstructionResult
from repro.utils.validation import check_matrix

__all__ = ["mean_square_error", "root_mean_square_error", "per_attribute_rmse"]


def _paired(original, estimate) -> tuple[np.ndarray, np.ndarray]:
    """Validate an (original, estimate) pair into aligned matrices."""
    if isinstance(estimate, ReconstructionResult):
        estimate = estimate.estimate
    x = check_matrix(original, "original", allow_1d=True)
    x_hat = check_matrix(estimate, "estimate", allow_1d=True)
    if x.shape != x_hat.shape:
        raise ValidationError(
            f"original has shape {x.shape} but estimate has {x_hat.shape}"
        )
    return x, x_hat


def _squared_residuals(original, estimate) -> np.ndarray:
    """``(X - X_hat)^2`` of a coerced, same-shape pair, not scanned for NaN.

    Any pair that is not two same-shape non-empty matrices (a 1-D column
    included) goes through :func:`_paired` first, so its error — a NaN in
    ``original`` before a shape mismatch, say — still wins.
    """
    if isinstance(estimate, ReconstructionResult):
        estimate = estimate.estimate
    x = np.asarray(original, dtype=np.float64)
    x_hat = np.asarray(estimate, dtype=np.float64)
    if x.ndim != 2 or x.shape != x_hat.shape or x.size == 0:
        x, x_hat = _paired(original, estimate)
    # inf - inf is NaN: let the validator, not numpy, report it.
    with np.errstate(invalid="ignore"):
        return (x - x_hat) ** 2


def mean_square_error(original, estimate) -> float:
    """Mean square error over every cell: ``mean((X - X_hat)^2)``.

    For the NDR attack this equals the empirical noise variance
    (Section 4.1's derivation).

    Parameters
    ----------
    original:
        The private table ``X`` (``(n, m)`` or a single column).
    estimate:
        The reconstruction — a matrix or a
        :class:`~repro.reconstruction.base.ReconstructionResult`.
    """
    value = float(np.mean(_squared_residuals(original, estimate)))
    if not math.isfinite(value):
        _paired(original, estimate)
    return value


def root_mean_square_error(original, estimate) -> float:
    """RMSE, the y-axis of every figure in the paper's evaluation."""
    return float(np.sqrt(mean_square_error(original, estimate)))


def per_attribute_rmse(original, estimate) -> np.ndarray:
    """RMSE of each attribute separately, shape ``(m,)``.

    Reveals *which* attributes a scheme exposes most — e.g. attributes
    aligned with principal directions reconstruct better under PCA-DR.
    """
    rmse = np.sqrt(np.mean(_squared_residuals(original, estimate), axis=0))
    if not np.isfinite(rmse).all():
        _paired(original, estimate)
    return rmse
