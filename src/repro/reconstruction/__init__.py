"""Data-reconstruction attacks — the paper's core contribution.

Given a published table ``Y = X + R`` and the public noise model, each
reconstructor produces an estimate ``X_hat`` of the private table.  The
distance between ``X_hat`` and ``X`` *is* the paper's privacy measure
(Section 3): the closer the reconstruction, the less privacy the
randomization preserved.

Attacks, in the paper's order:

* :class:`NoiseDistributionReconstructor` — NDR, Section 4.1 (guess
  ``y``; MSE equals the noise variance).
* :class:`UnivariateReconstructor` — UDR, Section 4.2 (per-attribute
  posterior mean; the benchmark the correlation-based attacks beat).
* :class:`PCAReconstructor` — PCA-DR, Section 5.
* :class:`BayesEstimateReconstructor` — BE-DR, Section 6 and the
  correlated-noise variant of Theorem 8.1.
* :class:`SpectralFilteringReconstructor` — SF, the Kargupta et al.
  baseline the paper compares against.

Extensions (Section 3's other factors / Section 9 future work):

* :class:`ConditionalDisclosureReconstructor` — partial value disclosure.
* :class:`WienerSmootherReconstructor` — sample (serial) dependency,
  per channel.
* :class:`KalmanSmootherReconstructor` — joint temporal + cross-channel
  state-space smoothing (RTS).
"""

from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.reconstruction.kalman import KalmanSmootherReconstructor
from repro.reconstruction.bedr import BayesEstimateReconstructor
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

__all__ = [
    "ReconstructionResult",
    "Reconstructor",
    "KalmanSmootherReconstructor",
    "BayesEstimateReconstructor",
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
]
