"""Covariance construction from an eigen-spectrum (Section 7.1 steps 1-3).

The paper controls data correlations by *choosing* the eigenvalues,
drawing an orthonormal eigenbasis with Gram-Schmidt, and assembling
``C = Q diag(lambda) Q^T``.  The basis is drawn as the Q factor of a
Householder QR of a Gaussian matrix with R's diagonal made positive,
which is the matrix Gram-Schmidt yields from the same draw.
:class:`CovarianceModel` packages the triple ``(lambda, Q, C)`` so
experiments can reuse the same eigenvectors when designing correlated
noise (Section 8.2 fixes the noise eigenvectors to the data's and only
varies the noise eigenvalues).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SpectrumError, ValidationError
from repro.linalg.eigen import sorted_eigh
from repro.linalg.gram_schmidt import is_orthonormal, random_orthogonal
from repro.utils.serialization import values_equal
from repro.utils.validation import check_matrix, check_symmetric, check_vector

__all__ = ["CovarianceModel"]


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """A covariance matrix with its known eigenstructure.

    Attributes
    ----------
    eigenvalues:
        Spectrum sorted descending, shape ``(m,)``.
    eigenvectors:
        Orthonormal columns matching the eigenvalues, shape ``(m, m)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _matrix_cache: list = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self):
        values = check_vector(self.eigenvalues, "eigenvalues")
        if np.any(values < 0.0):
            raise SpectrumError("eigenvalues must be non-negative")
        if np.any(np.diff(values) > 1e-9):
            raise SpectrumError("eigenvalues must be sorted descending")
        vectors = check_matrix(self.eigenvectors, "eigenvectors")
        if vectors.shape != (values.size, values.size):
            raise ValidationError(
                f"eigenvectors have shape {vectors.shape}, expected "
                f"({values.size}, {values.size})"
            )
        if not is_orthonormal(vectors, atol=1e-6):
            raise ValidationError("eigenvectors are not orthonormal")
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "eigenvectors", vectors)

    def __eq__(self, other) -> bool:
        # Array-aware: the generated __eq__ would raise on the ndarray
        # fields (the _matrix_cache is derived state and is excluded).
        if not isinstance(other, CovarianceModel):
            return NotImplemented
        return values_equal(
            self.eigenvalues, other.eigenvalues
        ) and values_equal(self.eigenvectors, other.eigenvectors)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_spectrum(cls, spectrum, rng=None) -> "CovarianceModel":
        """Build from eigenvalues with a random orthonormal eigenbasis.

        This is the paper's generation procedure (Section 7.1, steps 1-3).
        The basis is the Q factor of a Householder QR of a Gaussian matrix
        with R's diagonal made positive — the matrix Gram-Schmidt yields
        from the same draw (:func:`~repro.linalg.gram_schmidt.gram_schmidt`
        is the reference).
        """
        values = np.sort(check_vector(spectrum, "spectrum"))[::-1]
        basis = random_orthogonal(values.size, rng)
        return cls(eigenvalues=values, eigenvectors=basis)

    @classmethod
    def from_matrix(cls, covariance) -> "CovarianceModel":
        """Recover the eigenstructure of an existing covariance matrix."""
        sym = check_symmetric(covariance, "covariance")
        decomposition = sorted_eigh(sym)
        values = np.clip(decomposition.values, 0.0, None)
        return cls(eigenvalues=values, eigenvectors=decomposition.vectors)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of attributes ``m``."""
        return int(self.eigenvalues.size)

    @property
    def trace(self) -> float:
        """Total variance ``sum(lambda_i)`` (Eq. 12)."""
        return float(self.eigenvalues.sum())

    @property
    def matrix(self) -> np.ndarray:
        """The covariance matrix ``Q diag(lambda) Q^T`` (cached)."""
        if not self._matrix_cache:
            product = (
                self.eigenvectors * self.eigenvalues
            ) @ self.eigenvectors.T
            self._matrix_cache.append((product + product.T) / 2.0)
        return self._matrix_cache[0].copy()

    # ------------------------------------------------------------------
    # Derived models
    # ------------------------------------------------------------------
    def with_spectrum(self, spectrum) -> "CovarianceModel":
        """Same eigenvectors, different eigenvalues.

        Section 8.2: "we fix the eigenvectors of the noises to be the same
        as those of the original data, and we then change the values of
        the eigenvalues."
        """
        values = check_vector(spectrum, "spectrum")
        if values.size != self.dim:
            raise ValidationError(
                f"spectrum has length {values.size}, expected {self.dim}"
            )
        order = np.argsort(values)[::-1]
        return CovarianceModel(
            eigenvalues=values[order],
            eigenvectors=self.eigenvectors[:, order],
        )

    def scaled(self, factor: float) -> "CovarianceModel":
        """Covariance scaled by a positive factor (same correlations)."""
        if factor <= 0.0:
            raise ValidationError(f"factor must be positive, got {factor}")
        return CovarianceModel(
            eigenvalues=self.eigenvalues * factor,
            eigenvectors=self.eigenvectors,
        )

    def __repr__(self) -> str:
        return (
            f"CovarianceModel(dim={self.dim}, trace={self.trace:.4g}, "
            f"top={float(self.eigenvalues[0]):.4g})"
        )
