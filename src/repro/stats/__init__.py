"""Statistics substrate: univariate densities and the multivariate normal.

UDR (Section 4.2) needs univariate densities for the prior ``f_X``, the
noise ``f_R``, and their convolution ``f_Y``; BE-DR (Section 6) needs a
full multivariate-normal model with conditionals for the
partial-disclosure extension.
"""

from repro.stats.density import (
    Density,
    GaussianDensity,
    HistogramDensity,
    UniformDensity,
)
from repro.stats.moments import standardize, weighted_mean_and_variance
from repro.stats.mvn import MultivariateNormal

__all__ = [
    "Density",
    "GaussianDensity",
    "HistogramDensity",
    "UniformDensity",
    "standardize",
    "weighted_mean_and_variance",
    "MultivariateNormal",
]
