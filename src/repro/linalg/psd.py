"""Positive-semidefinite repair and PSD-aware factorizations.

Theorem 5.1 estimates the original covariance by subtracting ``sigma^2``
from the diagonal of a *sample* covariance.  For finite samples the result
routinely has small negative eigenvalues, which breaks the matrix inverse
in BE-DR (Eq. 11) and Cholesky-based sampling.  The paper does not discuss
this; any faithful implementation must repair the spectrum, and this
module centralizes that.

Because every repair is a numerical-health event, the module doubles as
the telemetry layer's condition probe: under tracing, :func:`psd_inverse`
and :func:`nearest_psd` publish ``linalg.*`` condition gauges and
clip/repair counters, and :func:`cholesky_with_jitter` counts its
calls and jitter retries.  All probes sit behind ``trace.enabled()``
and only read results; the traced and untraced paths compute the same
bits.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotPositiveDefiniteError
from repro.linalg.eigen import (
    EigenDecomposition,
    condition_number,
    sorted_eigh,
)
from repro.telemetry import trace
from repro.utils.validation import check_in_range, check_symmetric

__all__ = [
    "is_positive_semidefinite",
    "nearest_psd",
    "cholesky_with_jitter",
    "psd_inverse",
]


def is_positive_semidefinite(matrix, *, tol: float = 1e-10) -> bool:
    """True when all eigenvalues of the symmetric ``matrix`` are ``>= -tol``.

    The tolerance is relative to the largest absolute eigenvalue so the
    check is scale-free.
    """
    sym = check_symmetric(matrix, "matrix")
    values = np.linalg.eigvalsh(sym)
    scale = max(float(np.max(np.abs(values))), 1.0)
    return bool(values.min() >= -tol * scale)


def nearest_psd(
    matrix,
    *,
    floor: float = 0.0,
    return_decomposition: bool = False,
    decomposition: EigenDecomposition | None = None,
):
    """Project a symmetric matrix onto the PSD cone by spectral clipping.

    Eigenvalues below ``floor`` are raised to ``floor``; eigenvectors are
    kept.  With ``floor=0`` this is the Frobenius-nearest PSD matrix
    (Higham's projection for symmetric input).  A strictly positive floor
    yields a positive-*definite* result suitable for inversion.

    Parameters
    ----------
    matrix:
        Symmetric matrix, e.g. a Theorem-5.1 covariance estimate.
    floor:
        Minimum allowed eigenvalue; must be ``>= 0``.
    return_decomposition:
        Also return the :func:`sorted_eigh` decomposition of the result:
        the clipped eigenvalues with the input's eigenvectors.
    decomposition:
        The :func:`sorted_eigh` decomposition of ``matrix`` when the
        caller already has it; skips the eigendecomposition.

    Returns
    -------
    numpy.ndarray or (numpy.ndarray, EigenDecomposition)
        The projected matrix, paired with its decomposition when
        ``return_decomposition`` is set.
    """
    check_in_range(floor, "floor", low=0.0)
    if decomposition is None:
        decomposition = sorted_eigh(matrix)
    clipped = np.clip(decomposition.values, floor, None)
    if np.array_equal(clipped, decomposition.values):
        # Already PSD with the requested floor: return the symmetrized input.
        result = check_symmetric(matrix, "matrix")
    else:
        if trace.enabled():
            trace.count("linalg.nearest_psd.repairs")
            trace.gauge(
                "linalg.nearest_psd.condition",
                condition_number(decomposition.values),
            )
        vectors = decomposition.vectors
        repaired = (vectors * clipped) @ vectors.T
        result = (repaired + repaired.T) / 2.0
        decomposition = EigenDecomposition(clipped, vectors)
    if return_decomposition:
        return result, decomposition
    return result


def cholesky_with_jitter(
    matrix,
    *,
    initial_jitter: float = 1e-12,
    max_tries: int = 12,
) -> np.ndarray:
    """Cholesky factor of a (nearly) PSD matrix, adding diagonal jitter.

    Tries a plain Cholesky first; on failure adds ``jitter * mean(diag)``
    to the diagonal, multiplying the jitter by 10 each retry.  Raises
    :class:`NotPositiveDefiniteError` when the budget is exhausted, which
    signals the matrix is genuinely indefinite rather than borderline.

    Returns the lower-triangular ``L`` with ``L @ L.T ≈ matrix``.
    """
    sym = check_symmetric(matrix, "matrix")
    scale = float(np.mean(np.diag(sym)))
    if scale <= 0.0:
        scale = 1.0
    jitter = 0.0
    next_jitter = initial_jitter
    for retries in range(max_tries):
        try:
            factor = np.linalg.cholesky(
                sym + (jitter * scale) * np.eye(sym.shape[0])
            )
        except np.linalg.LinAlgError:
            jitter = next_jitter
            next_jitter *= 10.0
        else:
            break
    else:
        _count_cholesky(max(max_tries - 1, 0))
        raise NotPositiveDefiniteError(
            "matrix is not positive definite even after adding jitter up "
            f"to {jitter * scale:.3g}"
        )
    _count_cholesky(retries)
    return factor


def _count_cholesky(retries: int) -> None:
    """Publish one :func:`cholesky_with_jitter` call and its retries."""
    if trace.enabled():
        trace.count("linalg.cholesky.calls")
        if retries:
            trace.count("linalg.cholesky.retries", retries)


def psd_inverse(matrix, *, floor: float = 1e-10) -> np.ndarray:
    """Stable inverse of a symmetric PSD matrix via spectral clipping.

    Eigenvalues are floored at ``floor * max(eigenvalue)`` before
    inverting, so near-singular covariance estimates (common after the
    Theorem-5.1 diagonal subtraction) produce a bounded inverse instead of
    exploding.  For well-conditioned input this equals ``inv(matrix)`` to
    machine precision.
    """
    check_in_range(floor, "floor", low=0.0, inclusive_low=False)
    decomposition = sorted_eigh(matrix)
    top = float(decomposition.values[0])
    if top <= 0.0:
        raise NotPositiveDefiniteError(
            "matrix has no positive eigenvalues; cannot invert"
        )
    clipped = np.clip(decomposition.values, floor * top, None)
    if trace.enabled():
        trace.count("linalg.psd_inverse.calls")
        trace.gauge(
            "linalg.psd_inverse.condition",
            condition_number(decomposition.values),
        )
        if bool(np.any(decomposition.values < floor * top)):
            trace.count("linalg.psd_inverse.clipped")
    vectors = decomposition.vectors
    inverse = (vectors / clipped) @ vectors.T
    return (inverse + inverse.T) / 2.0
