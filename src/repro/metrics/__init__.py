"""Reconstruction-error metrics.

The paper quantifies privacy as the distance between the reconstruction
``X_hat`` and the original ``X`` (Section 3): root mean square error is
what every figure plots.  Definition 8.1's correlation dissimilarity
drives the improved-scheme experiment.
"""

from repro.metrics.dissimilarity import correlation_dissimilarity
from repro.metrics.error import (
    mean_square_error,
    per_attribute_rmse,
    root_mean_square_error,
)

__all__ = [
    "correlation_dissimilarity",
    "mean_square_error",
    "per_attribute_rmse",
    "root_mean_square_error",
]
