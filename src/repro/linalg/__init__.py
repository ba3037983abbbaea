"""Linear-algebra substrate used by the reconstruction attacks.

The paper's synthetic-data methodology (Section 7.1) builds covariance
matrices "in reverse": pick eigenvalues, build a random orthonormal basis
with Gram-Schmidt, and form ``C = Q diag(lambda) Q^T``.  The basis is the
Q factor of a Householder QR of a Gaussian matrix with R's diagonal made
positive, which is the matrix Gram-Schmidt yields from the same draw;
:func:`gram_schmidt` stays as the reference.  This subpackage provides
that machinery plus the eigendecomposition, PSD-repair, and
covariance-estimation helpers the attacks rely on, and
:class:`DisguisedStatistics`, which computes those a dataset's attacks
share once per dataset.
"""

from repro.linalg.covariance import (
    correlation_from_covariance,
    covariance_from_disguised,
    sample_covariance,
    sample_mean,
)
from repro.linalg.eigen import (
    EigenDecomposition,
    condition_number,
    eigen_gap_split,
    sorted_eigh,
    spectrum_energy_fraction,
)
from repro.linalg.gram_schmidt import gram_schmidt, is_orthonormal, random_orthogonal
from repro.linalg.psd import (
    cholesky_with_jitter,
    is_positive_semidefinite,
    nearest_psd,
    psd_inverse,
)
from repro.linalg.statistics import DisguisedStatistics

__all__ = [
    "correlation_from_covariance",
    "covariance_from_disguised",
    "sample_covariance",
    "sample_mean",
    "EigenDecomposition",
    "condition_number",
    "eigen_gap_split",
    "sorted_eigh",
    "spectrum_energy_fraction",
    "gram_schmidt",
    "is_orthonormal",
    "random_orthogonal",
    "cholesky_with_jitter",
    "is_positive_semidefinite",
    "nearest_psd",
    "psd_inverse",
    "DisguisedStatistics",
]
