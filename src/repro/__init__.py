"""repro — reproduction of "Deriving Private Information from Randomized Data".

Huang, Du, and Chen (SIGMOD 2005) showed that additive randomization
``Y = X + R`` leaks far more than its noise variance suggests whenever the
data's attributes are correlated, via two reconstruction attacks (PCA-DR
and BE-DR), and proposed correlated noise as the countermeasure.  This
package implements data generation, the randomization schemes, the
reconstruction attacks, the reconstruction-error metrics, the defense,
and the experiment harness that regenerates every figure in the paper.

Quickstart
----------
>>> import repro
>>> dataset = repro.generate_dataset(
...     spectrum=repro.two_level_spectrum(20, 3, total_variance=2000.0),
...     n_records=1000, rng=0)
>>> scheme = repro.AdditiveNoiseScheme(std=5.0)
>>> disguised = scheme.disguise(dataset.values, rng=1)
>>> attack = repro.BayesEstimateReconstructor()
>>> result = attack.reconstruct(disguised)
>>> rmse = repro.root_mean_square_error(disguised.original, result)
>>> rmse < 5.0  # beats the nominal noise level
True
"""

from repro.core.defense import DesignedNoise, NoiseDesigner, design_noise_spectrum
from repro.core.pipeline import (
    AttackOutcome,
    AttackPipeline,
    PipelineReport,
    evaluate_attacks,
)
from repro.core.threat_model import ThreatModel
from repro.data.census import CensusLikeGenerator, CensusTable
from repro.data.copula import GaussianCopulaGenerator
from repro.data.covariance_builder import CovarianceModel
from repro.data.spectra import (
    decaying_spectrum,
    rescale_to_trace,
    two_level_spectrum,
)
from repro.data.synthetic import SyntheticDataset, generate_dataset
from repro.data.timeseries import VectorAutoregressiveGenerator
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    NotPositiveDefiniteError,
    ReproError,
    ShapeError,
    SpectrumError,
    ValidationError,
)
from repro.metrics.dissimilarity import correlation_dissimilarity
from repro.metrics.error import (
    mean_square_error,
    per_attribute_rmse,
    root_mean_square_error,
)
from repro.randomization.additive import AdditiveNoiseScheme
from repro.randomization.base import (
    DisguisedDataset,
    NoiseModel,
    RandomizationScheme,
)
from repro.randomization.correlated import CorrelatedNoiseScheme
from repro.randomization.distribution_recon import reconstruct_distribution
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.reconstruction.bedr import BayesEstimateReconstructor
from repro.reconstruction.kalman import KalmanSmootherReconstructor
from repro.reconstruction.ndr import NoiseDistributionReconstructor
from repro.reconstruction.partial_disclosure import (
    ConditionalDisclosureReconstructor,
)
from repro.reconstruction.pca_dr import PCAReconstructor
from repro.reconstruction.selection import (
    ComponentSelector,
    EnergyFractionSelector,
    FixedCountSelector,
    LargestGapSelector,
)
from repro.reconstruction.spectral_filtering import (
    SpectralFilteringReconstructor,
    marchenko_pastur_bounds,
)
from repro.reconstruction.udr import UnivariateReconstructor
from repro.reconstruction.wiener import WienerSmootherReconstructor
from repro.stats.density import (
    Density,
    GaussianDensity,
    HistogramDensity,
    UniformDensity,
)
from repro.mining.naive_bayes import GaussianNaiveBayes, utility_report
from repro.stats.mvn import MultivariateNormal

#: Package version; participates in engine cache keys so upgrading
#: invalidates previously cached results.
__version__ = "1.0.0"


def __getattr__(name):
    # Lazy: ``repro.api`` pulls in the engine, whose cache keys read
    # ``repro.__version__`` — importing it eagerly mid-__init__ would
    # expose a partially initialized module.
    if name == "api":
        import repro.api as api

        return api
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "__version__",
    # core
    "DesignedNoise",
    "NoiseDesigner",
    "design_noise_spectrum",
    "AttackOutcome",
    "AttackPipeline",
    "PipelineReport",
    "evaluate_attacks",
    "ThreatModel",
    # data
    "CensusLikeGenerator",
    "GaussianCopulaGenerator",
    "CensusTable",
    "CovarianceModel",
    "decaying_spectrum",
    "rescale_to_trace",
    "two_level_spectrum",
    "SyntheticDataset",
    "generate_dataset",
    "VectorAutoregressiveGenerator",
    # exceptions
    "ConfigurationError",
    "ConvergenceError",
    "NotPositiveDefiniteError",
    "ReproError",
    "ShapeError",
    "SpectrumError",
    "ValidationError",
    # metrics
    "correlation_dissimilarity",
    "mean_square_error",
    "per_attribute_rmse",
    "root_mean_square_error",
    # randomization
    "AdditiveNoiseScheme",
    "DisguisedDataset",
    "NoiseModel",
    "RandomizationScheme",
    "CorrelatedNoiseScheme",
    "reconstruct_distribution",
    # reconstruction
    "ReconstructionResult",
    "Reconstructor",
    "BayesEstimateReconstructor",
    "KalmanSmootherReconstructor",
    "NoiseDistributionReconstructor",
    "ConditionalDisclosureReconstructor",
    "PCAReconstructor",
    "ComponentSelector",
    "EnergyFractionSelector",
    "FixedCountSelector",
    "LargestGapSelector",
    "SpectralFilteringReconstructor",
    "marchenko_pastur_bounds",
    "UnivariateReconstructor",
    "WienerSmootherReconstructor",
    # mining
    "GaussianNaiveBayes",
    "utility_report",
    # stats
    "Density",
    "GaussianDensity",
    "HistogramDensity",
    "UniformDensity",
    "MultivariateNormal",
]
