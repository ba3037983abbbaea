"""Synthetic-data substrate reproducing the paper's Section 7.1 pipeline.

The paper generates covariance matrices "in reverse": choose eigenvalues,
draw a random orthonormal eigenbasis, form ``C = Q diag(lambda) Q^T``,
then sample multivariate-normal records from ``C`` (Matlab's ``mvnrnd``;
here :class:`repro.stats.mvn.MultivariateNormal`).  The paper draws the
basis by Gram-Schmidt; here it is the Q factor of a Householder QR of a
Gaussian matrix with R's diagonal made positive, which is the matrix
Gram-Schmidt yields from the same draw.
"""

from repro.data.copula import GaussianCopulaGenerator
from repro.data.covariance_builder import CovarianceModel
from repro.data.census import CensusLikeGenerator, CensusTable
from repro.data.spectra import (
    decaying_spectrum,
    rescale_to_trace,
    two_level_spectrum,
)
from repro.data.synthetic import SyntheticDataset, generate_dataset
from repro.data.timeseries import VectorAutoregressiveGenerator

__all__ = [
    "GaussianCopulaGenerator",
    "CovarianceModel",
    "CensusLikeGenerator",
    "CensusTable",
    "decaying_spectrum",
    "rescale_to_trace",
    "two_level_spectrum",
    "SyntheticDataset",
    "generate_dataset",
    "VectorAutoregressiveGenerator",
]
