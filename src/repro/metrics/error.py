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

Closed-form scoring: passed a
:class:`~repro.randomization.base.DisguisedDataset` as ``original`` and
a result carrying an :class:`~repro.reconstruction.base.AffineMap` over
that dataset's ``Y``, the scores come from ``m x m`` quantities instead
of the ``(n, m)`` estimate.  Write the map as ``X_hat = Yc W + b`` with
``Yc = Y - y_bar`` and ``Xc = X - x_bar``; the centred columns sum to
zero, so attribute ``j``'s sum of squared errors is

    SSE_j = (Xc^T Xc)_jj - 2 (Xc^T Yc W)_jj + (W^T Yc^T Yc W)_jj
            + n (x_bar_j - b_j)^2,

with ``Yc^T Yc = (n - 1) Cov(Y)`` from the dataset's shared statistics
and ``x_bar``, ``diag(Xc^T Xc)`` and ``Xc^T Yc`` from its private
:attr:`~repro.randomization.base.DisguisedDataset.reference_gram`,
computed once per dataset.  On the figure jobs this agrees with the
materialised residual to about ``1e-11`` relative.  The identity
cancels when ``X_hat`` nearly equals ``X``: if any column's ``SSE_j``
falls below ``1e-8 (Xc^T Xc)_jj`` (negative included), the result is
scored from the materialised residual instead and the
``metrics.score.fallbacks`` counter is incremented.  Raw-matrix callers
and results without an affine map always take the materialised path.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.exceptions import ValidationError
from repro.randomization.base import DisguisedDataset
from repro.reconstruction.base import ReconstructionResult
from repro.telemetry import trace
from repro.utils.validation import check_matrix

#: A column whose closed-form SSE is below this share of its centred
#: energy ``(Xc^T Xc)_jj`` is scored from the materialised residual.
CANCELLATION_GUARD = 1e-8

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


def _affine_sse(reference, estimate) -> np.ndarray | None:
    """Closed-form per-attribute SSE, or ``None`` for the materialised path.

    ``None`` unless ``reference`` is a dataset and ``estimate`` an affine
    result over its ``Y``, or when the cancellation guard fires.
    """
    if not (
        isinstance(reference, DisguisedDataset)
        and isinstance(estimate, ReconstructionResult)
        and estimate.affine is not None
        and estimate.affine.disguised is reference.disguised
    ):
        return None
    statistics = reference.statistics
    gram = reference.reference_gram
    n = reference.n_records
    weights, offset = estimate.affine.centred(statistics.column_means)
    if weights.ndim == 1:
        cross = np.diag(gram.cross) * weights
        quadratic = np.diag(statistics.covariance) * weights**2
    else:
        cross = np.einsum("jk,kj->j", gram.cross, weights)
        quadratic = np.einsum("kj,kj->j", statistics.covariance @ weights, weights)
    sse = gram.sq_norms - 2.0 * cross + (n - 1) * quadratic
    sse += n * (gram.mean - offset) ** 2
    if np.all(sse >= CANCELLATION_GUARD * gram.sq_norms):
        return sse
    trace.count("metrics.score.fallbacks")
    return None


def _scores(original, estimate) -> tuple[np.ndarray | None, Any]:
    """``(closed-form SSE or None, the table to score against)``."""
    sse = _affine_sse(original, estimate)
    if isinstance(original, DisguisedDataset):
        original = original.original
    return sse, original


def mean_square_error(original, estimate) -> float:
    """Mean square error over every cell: ``mean((X - X_hat)^2)``.

    For the NDR attack this equals the empirical noise variance
    (Section 4.1's derivation).

    Parameters
    ----------
    original:
        The private table ``X`` (``(n, m)`` or a single column), or the
        :class:`~repro.randomization.base.DisguisedDataset` holding it
        (which scores affine results in closed form; see above).
    estimate:
        The reconstruction — a matrix or a
        :class:`~repro.reconstruction.base.ReconstructionResult`.
    """
    sse, original = _scores(original, estimate)
    if sse is not None:
        return float(np.sum(sse) / (original.shape[0] * sse.size))
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
    sse, original = _scores(original, estimate)
    if sse is not None:
        return np.sqrt(sse / original.shape[0])
    rmse = np.sqrt(np.mean(_squared_residuals(original, estimate), axis=0))
    if not np.isfinite(rmse).all():
        _paired(original, estimate)
    return rmse
