"""Gram-Schmidt orthonormalization and random orthogonal matrices.

Section 7.1 of the paper generates covariance matrices by drawing a random
orthogonal matrix via "Gram-Schmidt orthonormalization process" and
combining it with a chosen eigenvalue spectrum.  :func:`gram_schmidt` is
that process: the numerically stable *modified* Gram-Schmidt with
re-orthogonalization, kept as the reference implementation.
:func:`random_orthogonal` draws the basis as the Q factor of a Householder
QR of a Gaussian matrix with R's diagonal made positive.  QR with a
positive diagonal is unique, so this is the matrix Gram-Schmidt yields
from the same draw (up to rounding), and the draw is Haar-distributed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["gram_schmidt", "is_orthonormal", "random_orthogonal"]

# Vectors whose norm collapses below this after projection are treated as
# linearly dependent on the vectors already in the basis.
_DEPENDENCE_TOL = 1e-12


def gram_schmidt(vectors, *, reorthogonalize: bool = True) -> np.ndarray:
    """Orthonormalize the columns of ``vectors``.

    Uses modified Gram-Schmidt; with ``reorthogonalize=True`` each column
    is passed through the projection loop twice ("twice is enough",
    Giraud et al.), which keeps the result orthonormal to machine
    precision even for badly conditioned inputs.

    Parameters
    ----------
    vectors:
        Array of shape ``(m, k)`` whose ``k`` columns are linearly
        independent vectors in ``R^m``.
    reorthogonalize:
        Apply a second projection sweep per column.

    Returns
    -------
    numpy.ndarray
        Array ``Q`` of shape ``(m, k)`` with orthonormal columns spanning
        the same space, ``Q.T @ Q = I``.

    Raises
    ------
    ValidationError
        If the columns are linearly dependent (within tolerance) or there
        are more columns than rows.
    """
    matrix = check_matrix(vectors, "vectors")
    m, k = matrix.shape
    if k > m:
        raise ValidationError(
            f"cannot orthonormalize {k} vectors in R^{m}: too many columns"
        )
    basis = np.empty((m, k), dtype=np.float64)
    sweeps = 2 if reorthogonalize else 1
    for j in range(k):
        v = matrix[:, j].copy()
        original_norm = np.linalg.norm(v)
        if original_norm <= _DEPENDENCE_TOL:
            raise ValidationError(f"column {j} of 'vectors' is (near) zero")
        for _ in range(sweeps):
            for i in range(j):
                v -= (basis[:, i] @ v) * basis[:, i]
        norm = np.linalg.norm(v)
        if norm <= _DEPENDENCE_TOL * original_norm:
            raise ValidationError(
                f"column {j} of 'vectors' is linearly dependent on the "
                "previous columns"
            )
        basis[:, j] = v / norm
    return basis


def is_orthonormal(matrix, *, atol: float = 1e-8) -> bool:
    """Return True when ``matrix`` has orthonormal columns within ``atol``."""
    q = check_matrix(matrix, "matrix")
    gram = q.T @ q
    return bool(np.allclose(gram, np.eye(q.shape[1]), atol=atol, rtol=0.0))


def random_orthogonal(dim: int, rng=None) -> np.ndarray:
    """Draw a random ``dim x dim`` orthogonal matrix.

    A standard-normal matrix ``G`` is factored by a Householder QR and
    each column of ``Q`` is multiplied by the sign of ``R``'s diagonal,
    so ``Q.T @ G`` has a positive diagonal.  That ``Q`` is unique: it is
    the matrix :func:`gram_schmidt` returns for ``G`` (the paper's
    construction), computed in one LAPACK call, and it is
    Haar-distributed.

    Parameters
    ----------
    dim:
        Matrix dimension; must be positive.
    rng:
        Seed or generator (see :func:`repro.utils.rng.as_generator`).
    """
    dim = check_positive_int(dim, "dim")
    generator = as_generator(rng)
    gaussian = generator.standard_normal((dim, dim))
    q, r = np.linalg.qr(gaussian)
    signs = np.sign(np.diag(r))
    # np.sign returns exactly 0.0 for a zero diagonal entry; this replaces
    # that exact sentinel, not an approximate value.
    signs[signs == 0.0] = 1.0
    return q * signs
