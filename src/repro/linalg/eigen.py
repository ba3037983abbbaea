"""Sorted symmetric eigendecompositions and spectrum diagnostics.

PCA-DR (Section 5) orders eigenvalues descending and needs a rule for
splitting "principal" from "non-principal" components.  The paper's
experiments use the *largest gap* between consecutive eigenvalues
(Section 5.2.2, footnote 1); :func:`eigen_gap_split` implements that rule
and :func:`spectrum_energy_fraction` supports the energy-based variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.serialization import values_equal
from repro.utils.validation import check_symmetric, check_vector

__all__ = [
    "EigenDecomposition",
    "sorted_eigh",
    "condition_number",
    "eigen_gap_split",
    "spectrum_energy_fraction",
]

#: Condition numbers are reported capped at this value so they stay
#: representable in strict (``allow_nan=False``) JSON documents, such
#: as the ``linalg.*.condition`` gauges of a trace stream.
CONDITION_CAP = 1e300


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, sorted descending.

    Attributes
    ----------
    values:
        Eigenvalues, shape ``(m,)``, ``values[0] >= values[1] >= ...``.
    vectors:
        Matching eigenvectors as columns, shape ``(m, m)``;
        ``matrix @ vectors[:, k] == values[k] * vectors[:, k]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __eq__(self, other) -> bool:
        # The generated dataclass __eq__ would raise the ambiguous-truth
        # ValueError on the array fields.
        if not isinstance(other, EigenDecomposition):
            return NotImplemented
        return values_equal(self.values, other.values) and values_equal(
            self.vectors, other.vectors
        )

    @property
    def dim(self) -> int:
        """Dimension of the decomposed matrix."""
        return int(self.values.size)

    def reconstruct(self, rank: int | None = None) -> np.ndarray:
        """Rebuild the matrix from the top ``rank`` eigenpairs.

        With ``rank=None`` the full matrix is reproduced (up to floating
        point); a smaller rank gives the best rank-``rank`` approximation.
        """
        if rank is None:
            rank = self.dim
        if not 1 <= rank <= self.dim:
            raise ValidationError(
                f"rank must be in [1, {self.dim}], got {rank}"
            )
        q = self.vectors[:, :rank]
        return (q * self.values[:rank]) @ q.T

    def projector(self, rank: int) -> np.ndarray:
        """Orthogonal projector ``Q_p Q_p^T`` onto the top-``rank`` subspace.

        This is exactly the matrix PCA-DR multiplies the disguised data by
        in step 3 of Section 5.2.2.
        """
        if not 1 <= rank <= self.dim:
            raise ValidationError(
                f"rank must be in [1, {self.dim}], got {rank}"
            )
        q = self.vectors[:, :rank]
        return q @ q.T


def sorted_eigh(matrix, name: str = "matrix") -> EigenDecomposition:
    """Eigendecompose a symmetric matrix with eigenvalues sorted descending.

    Wraps :func:`numpy.linalg.eigh` (which sorts ascending) and reverses
    the order, matching the paper's convention ``lambda_1 >= ... >=
    lambda_m``.
    """
    sym = check_symmetric(matrix, name)
    values, vectors = np.linalg.eigh(sym)
    order = np.argsort(values)[::-1]
    return EigenDecomposition(values=values[order], vectors=vectors[:, order])


def condition_number(values) -> float:
    """Spectral condition number from a symmetric matrix's eigenvalues.

    ``|lambda|_max / |lambda|_min`` — the health probe the telemetry
    layer publishes for PSD repairs and inversions: a Theorem-5.1
    covariance estimate drifting toward singularity shows up as this
    number exploding before any kernel actually fails.

    Parameters
    ----------
    values:
        Eigenvalues in any order (e.g. from :func:`sorted_eigh`).

    Returns
    -------
    float
        The condition number, capped at :data:`CONDITION_CAP`; a
        singular or zero spectrum returns the cap itself.
    """
    spectrum = np.abs(check_vector(values, "values"))
    top = float(spectrum.max())
    bottom = float(spectrum.min())
    if top <= 0.0 or bottom <= 0.0:
        return CONDITION_CAP
    ratio = top / bottom
    if not math.isfinite(ratio) or ratio > CONDITION_CAP:
        return CONDITION_CAP
    return ratio


def eigen_gap_split(values, *, max_rank: int | None = None) -> int:
    """Number of principal components chosen by the largest-gap rule.

    Finds ``p`` maximizing ``values[p-1] - values[p]``, the split where
    the descending spectrum drops the most — the selection rule the paper
    uses in its experiments (Section 5.2.2, footnote 1: "choose the
    dominant eigenvalues by finding the largest gap between the dominant
    eigenvalues and the non-dominant ones").

    A virtual trailing eigenvalue of zero participates as the "fully
    non-dominant" baseline, so ``p = m`` is selectable: a flat spectrum
    (every direction equally strong — no correlations to exploit) keeps
    all components instead of being forced to discard signal at an
    arbitrary interior gap.

    Parameters
    ----------
    values:
        Eigenvalues sorted descending.
    max_rank:
        Optional cap: only consider splits with ``p <= max_rank``.

    Returns
    -------
    int
        ``p`` in ``[1, m]``.
    """
    spectrum = check_vector(values, "values")
    if np.any(np.diff(spectrum) > 1e-9):
        raise ValidationError("'values' must be sorted in descending order")
    m = spectrum.size
    limit = m if max_rank is None else min(max_rank, m)
    if limit < 1:
        raise ValidationError(f"max_rank must be >= 1, got {max_rank}")
    padded = np.append(spectrum, 0.0)
    gaps = padded[:limit] - padded[1 : limit + 1]
    return int(np.argmax(gaps)) + 1


def spectrum_energy_fraction(values, fraction: float) -> int:
    """Smallest ``p`` whose top-``p`` eigenvalues hold ``fraction`` of energy.

    "Energy" is the sum of eigenvalues (the total variance, Eq. 12 of the
    paper).  Used by the energy-based component-selection strategy.

    Parameters
    ----------
    values:
        Eigenvalues sorted descending; must be non-negative overall sum.
    fraction:
        Target fraction in ``(0, 1]``.
    """
    spectrum = check_vector(values, "values")
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(
            f"fraction must be in (0, 1], got {fraction}"
        )
    clipped = np.clip(spectrum, 0.0, None)
    total = float(clipped.sum())
    if total <= 0.0:
        raise ValidationError("'values' has no positive energy")
    cumulative = np.cumsum(clipped) / total
    return int(np.searchsorted(cumulative, fraction - 1e-12)) + 1
