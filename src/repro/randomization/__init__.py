"""Randomization (data-disguising) schemes and distribution recovery.

The object of study: additive random perturbation ``Y = X + R`` (Agrawal-
Srikant), the paper's improved *correlated-noise* variant (Section 8), and
the iterative Bayes procedure that recovers the original distribution
from disguised data — the "data mining still works" half of the
randomization story and the source of UDR's prior.
"""

from repro.randomization.additive import AdditiveNoiseScheme
from repro.randomization.base import DisguisedDataset, RandomizationScheme
from repro.randomization.correlated import CorrelatedNoiseScheme
from repro.randomization.distribution_recon import (
    reconstruct_distribution,
    reconstruction_sweep,
)

__all__ = [
    "AdditiveNoiseScheme",
    "DisguisedDataset",
    "RandomizationScheme",
    "CorrelatedNoiseScheme",
    "reconstruct_distribution",
    "reconstruction_sweep",
]
