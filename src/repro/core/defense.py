"""The paper's improved randomization scheme as a noise *designer*.

Section 8.2's construction: keep the noise eigenvectors equal to the
data's, fix the total noise power, and reshape only the noise eigenvalue
profile.  Sliding the profile from "proportional to the data's spectrum"
through "flat" to "reversed" traces out Figure 4's x-axis:

* **proportional** — the noise correlation matrix equals the data's;
  correlation dissimilarity 0; attacks cannot separate noise from signal.
* **flat** — all noise eigenvalues equal, i.e. covariance
  ``(power/m) * I``: *independent* noise, the vertical line in Figure 4.
* **reversed** — noise concentrates on the data's non-principal
  directions, correlations are maximally different, and PCA-style
  filtering becomes devastatingly effective.

:func:`design_noise_spectrum` interpolates that path with a single
``profile`` parameter in ``[0, 2]`` (0 = proportional, 1 = flat,
2 = reversed); :class:`NoiseDesigner` wraps it into ready-to-use
:class:`~repro.randomization.correlated.CorrelatedNoiseScheme` objects
and reports the achieved Definition-8.1 dissimilarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.covariance_builder import CovarianceModel
from repro.exceptions import ValidationError
from repro.metrics.dissimilarity import correlation_dissimilarity
from repro.randomization.correlated import CorrelatedNoiseScheme
from repro.utils.validation import check_in_range

__all__ = ["design_noise_spectrum", "DesignedNoise", "NoiseDesigner"]


def design_noise_spectrum(
    data_eigenvalues,
    *,
    noise_power: float,
    profile: float,
) -> np.ndarray:
    """Noise eigenvalues along the proportional-flat-reversed path.

    Piecewise-linear interpolation in profile space:

    * ``profile in [0, 1]`` — between the data spectrum and a flat
      spectrum: ``(1 - t) * lambda_x + t * flat``.
    * ``profile in [1, 2]`` — between flat and the reversed data
      spectrum: ``(2 - t) * flat + (t - 1) * reversed(lambda_x)``.

    The result is rescaled so its sum equals ``noise_power``, keeping the
    total perturbation energy constant across the sweep (the paper holds
    the noise amount fixed while varying only its correlation shape).

    Parameters
    ----------
    data_eigenvalues:
        The data covariance spectrum, sorted descending.
    noise_power:
        Target trace of the noise covariance (``m * sigma^2`` to match an
        i.i.d. scheme of per-attribute variance ``sigma^2``).
    profile:
        Path position in ``[0, 2]``; 1 is exactly independent noise.

    Returns
    -------
    numpy.ndarray
        Noise eigenvalues aligned with the data eigenvector order (not
        re-sorted: entry ``k`` belongs to data eigenvector ``k``).
    """
    spectrum = np.asarray(data_eigenvalues, dtype=np.float64)
    if spectrum.ndim != 1 or spectrum.size == 0:
        raise ValidationError("'data_eigenvalues' must be a 1-D spectrum")
    if np.any(spectrum < 0.0):
        raise ValidationError("'data_eigenvalues' must be non-negative")
    power = check_in_range(
        noise_power, "noise_power", low=0.0, inclusive_low=False
    )
    t = check_in_range(profile, "profile", low=0.0, high=2.0)
    flat = np.full_like(spectrum, spectrum.mean())
    if t <= 1.0:
        raw = (1.0 - t) * spectrum + t * flat
    else:
        raw = (2.0 - t) * flat + (t - 1.0) * spectrum[::-1]
    total = float(raw.sum())
    if total <= 0.0:
        raise ValidationError("designed spectrum has zero energy")
    return raw * (power / total)


@dataclass(frozen=True)
class DesignedNoise:
    """A designed noise covariance plus its similarity diagnostics.

    Attributes
    ----------
    profile:
        The path parameter that produced it.
    dissimilarity:
        Definition-8.1 correlation dissimilarity between the noise and
        the data covariance (population values, RMS convention).
    noise_model:
        The noise :class:`CovarianceModel` (data eigenvectors, designed
        eigenvalues).
    """

    profile: float
    dissimilarity: float
    noise_model: CovarianceModel

    @cached_property
    def scheme(self) -> CorrelatedNoiseScheme:
        """Ready-to-apply correlated-noise scheme, built on first access.

        Construction checks the covariance and factors it, which the
        moment-space Figure 4 jobs never need.
        """
        return CorrelatedNoiseScheme(self.noise_model.matrix)


class NoiseDesigner:
    """Designs Section-8 correlated noise against a given data covariance.

    Parameters
    ----------
    data_model:
        Eigenstructure of the data covariance the publisher wants to
        protect (the publisher owns the data, so the true covariance is
        available to the *defense* even though attackers must estimate
        it).
    noise_power:
        Total noise energy (trace); ``m * sigma^2`` reproduces the
        baseline scheme's power at ``profile = 1``.
    """

    def __init__(self, data_model: CovarianceModel, *, noise_power: float):
        if not isinstance(data_model, CovarianceModel):
            raise ValidationError(
                "data_model must be a CovarianceModel, got "
                f"{type(data_model).__name__}"
            )
        self._data_model = data_model
        self._noise_power = check_in_range(
            noise_power, "noise_power", low=0.0, inclusive_low=False
        )

    @property
    def data_model(self) -> CovarianceModel:
        """The protected data's covariance model."""
        return self._data_model

    @property
    def noise_power(self) -> float:
        """Total designed noise energy."""
        return self._noise_power

    def design(self, profile: float) -> DesignedNoise:
        """Design the noise at one point of the similarity path."""
        spectrum = design_noise_spectrum(
            self._data_model.eigenvalues,
            noise_power=self._noise_power,
            profile=profile,
        )
        noise_model = self._data_model.with_spectrum(spectrum)
        dissimilarity = correlation_dissimilarity(
            self._data_model.matrix,
            noise_model.matrix,
            inputs="covariance",
        )
        return DesignedNoise(
            profile=float(profile),
            dissimilarity=dissimilarity,
            noise_model=noise_model,
        )

    def sweep(self, profiles) -> list[DesignedNoise]:
        """Design a scheme at every profile value (Figure 4's sweep)."""
        return [self.design(float(t)) for t in np.asarray(profiles).ravel()]

    def __repr__(self) -> str:
        return (
            f"NoiseDesigner(m={self._data_model.dim}, "
            f"power={self._noise_power:g})"
        )
