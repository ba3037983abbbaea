"""Correlation dissimilarity between two datasets (Definition 8.1).

Quantifies how differently two tables are correlated — the x-axis of the
paper's Figure 4, where it compares the noise's correlation structure to
the original data's.

Definition 8.1 as typeset places the ``1/(m^2 - m)`` normalizer *outside*
the square root, which for ``m = 100`` caps the metric at roughly 0.02 —
inconsistent with Figure 4's x-axis spanning 0.04 to 0.2.  The RMS
reading (normalizer inside the root) matches the figure, so it is the
default here; the literal reading is available for completeness.  See
"Definition 8.1: the RMS reading" in ``docs/paper_map.md`` for the full
argument.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.covariance import (
    correlation_from_covariance,
    sample_covariance,
)
from repro.utils.validation import check_matrix, check_symmetric

__all__ = ["correlation_dissimilarity"]

_CONVENTIONS = ("rms", "literal")


def correlation_dissimilarity(
    first,
    second,
    *,
    convention: str = "rms",
    inputs: str = "data",
) -> float:
    """Definition 8.1's dissimilarity between two correlation structures.

    Parameters
    ----------
    first, second:
        Either two data matrices of shape ``(n_i, m)`` (``inputs="data"``,
        the definition's ``X`` and ``R``) or two ``(m, m)`` covariance /
        correlation matrices (``inputs="covariance"``, convenient when the
        population covariances are known exactly).
    convention:
        ``"rms"`` — ``sqrt( sum_{i != j} (C_X - C_R)_{ij}^2 / (m^2 - m) )``
        (default; consistent with Figure 4).
        ``"literal"`` — ``sqrt( sum_{i != j} ... ) / (m^2 - m)`` exactly as
        typeset in Definition 8.1.
    inputs:
        ``"data"`` or ``"covariance"``.

    Returns
    -------
    float
        Non-negative dissimilarity; zero when the off-diagonal correlation
        coefficients agree exactly.
    """
    if convention not in _CONVENTIONS:
        raise ValidationError(
            f"convention must be one of {_CONVENTIONS}, got {convention!r}"
        )
    if inputs == "data":
        corr_a = _correlation_of_data(first, "first")
        corr_b = _correlation_of_data(second, "second")
    elif inputs == "covariance":
        corr_a = correlation_from_covariance(
            check_symmetric(first, "first")
        )
        corr_b = correlation_from_covariance(
            check_symmetric(second, "second")
        )
    else:
        raise ValidationError(
            f"inputs must be 'data' or 'covariance', got {inputs!r}"
        )
    m = corr_a.shape[0]
    if corr_b.shape[0] != m:
        raise ValidationError(
            f"dimension mismatch: {m} vs {corr_b.shape[0]} attributes"
        )
    if m < 2:
        raise ValidationError(
            "correlation dissimilarity needs at least 2 attributes"
        )
    delta = corr_a - corr_b
    np.fill_diagonal(delta, 0.0)  # diagonals are always 1 and excluded
    sum_sq = float(np.sum(delta**2))
    pairs = m * m - m
    if convention == "rms":
        return math.sqrt(sum_sq / pairs)
    return math.sqrt(sum_sq) / pairs


def _correlation_of_data(data, name: str) -> np.ndarray:
    matrix = check_matrix(data, name, min_rows=2, min_cols=2)
    return correlation_from_covariance(sample_covariance(matrix))
