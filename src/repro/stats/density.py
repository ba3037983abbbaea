"""Univariate density objects used by UDR and the distribution estimators.

A :class:`Density` exposes ``pdf``, ``mean``, ``variance``, ``sample`` and
a finite ``support`` interval used to set up the integration grids in
:mod:`repro.reconstruction.udr` and
:mod:`repro.randomization.distribution_recon`.  All implementations are
plain NumPy; no scipy.stats objects leak through the API.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_range, check_vector

__all__ = [
    "Density",
    "GaussianDensity",
    "UniformDensity",
    "HistogramDensity",
]


class Density(abc.ABC):
    """A univariate probability density."""

    @abc.abstractmethod
    def pdf(self, x) -> np.ndarray:
        """Density evaluated elementwise at ``x``."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @property
    @abc.abstractmethod
    def variance(self) -> float:
        """Variance."""

    @abc.abstractmethod
    def support(self, coverage: float = 0.9999) -> tuple[float, float]:
        """Interval ``[lo, hi]`` containing at least ``coverage`` mass."""

    @abc.abstractmethod
    def sample(self, size: int, rng=None) -> np.ndarray:
        """Draw ``size`` i.i.d. samples."""

    @property
    def std(self) -> float:
        """Standard deviation (derived from :attr:`variance`)."""
        return math.sqrt(self.variance)

    def _as_array(self, x) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)


class GaussianDensity(Density):
    """Normal density ``N(mu, sigma^2)``.

    This is the paper's default noise model (Section 6.1: "random noise
    used for each attribute has normal distribution").

    Parameters
    ----------
    mean:
        Location ``mu``.
    std:
        Standard deviation ``sigma > 0``.
    """

    def __init__(self, mean: float = 0.0, std: float = 1.0):
        self._mean = check_in_range(mean, "mean")
        self._std = check_in_range(std, "std", low=0.0, inclusive_low=False)

    def pdf(self, x) -> np.ndarray:
        """``N(x; mu, sigma^2)`` evaluated elementwise; shape follows ``x``."""
        z = (self._as_array(x) - self._mean) / self._std
        return np.exp(-0.5 * z * z) / (self._std * math.sqrt(2.0 * math.pi))

    @property
    def mean(self) -> float:
        """Location parameter ``mu``."""
        return self._mean

    @property
    def variance(self) -> float:
        """``sigma^2``."""
        return self._std**2

    def support(self, coverage: float = 0.9999) -> tuple[float, float]:
        """Central interval ``mu +- z(coverage) * sigma``."""
        halfwidth = self._std * _gaussian_halfwidth(coverage)
        return (self._mean - halfwidth, self._mean + halfwidth)

    def sample(self, size: int, rng=None) -> np.ndarray:
        """Draw ``size`` i.i.d. ``N(mu, sigma^2)`` variates, shape ``(size,)``."""
        return as_generator(rng).normal(self._mean, self._std, size=size)

    def __repr__(self) -> str:
        return f"GaussianDensity(mean={self._mean:g}, std={self._std:g})"


class UniformDensity(Density):
    """Uniform density on ``[low, high]``.

    Matches the paper's introductory example of disguising with
    "independent uniformly-random number with mean zero" (Section 1).

    Parameters
    ----------
    low, high:
        Interval endpoints with ``high > low``.
    """

    def __init__(self, low: float, high: float):
        low = check_in_range(low, "low")
        high = check_in_range(high, "high")
        if high <= low:
            raise ValidationError(
                f"'high' must exceed 'low', got [{low}, {high}]"
            )
        self._low = low
        self._high = high

    def pdf(self, x) -> np.ndarray:
        """``1 / (high - low)`` inside the interval, 0 outside."""
        array = self._as_array(x)
        inside = (array >= self._low) & (array <= self._high)
        return np.where(inside, 1.0 / (self._high - self._low), 0.0)

    @property
    def mean(self) -> float:
        """Interval midpoint ``(low + high) / 2``."""
        return (self._low + self._high) / 2.0

    @property
    def variance(self) -> float:
        """``(high - low)^2 / 12``."""
        return (self._high - self._low) ** 2 / 12.0

    def support(self, coverage: float = 0.9999) -> tuple[float, float]:
        """The full interval ``[low, high]`` (all mass, any coverage)."""
        check_in_range(coverage, "coverage", low=0.0, high=1.0,
                       inclusive_low=False)
        return (self._low, self._high)

    def sample(self, size: int, rng=None) -> np.ndarray:
        """Draw ``size`` i.i.d. uniform variates, shape ``(size,)``."""
        return as_generator(rng).uniform(self._low, self._high, size=size)

    def __repr__(self) -> str:
        return f"UniformDensity(low={self._low:g}, high={self._high:g})"


class HistogramDensity(Density):
    """Piecewise-constant density over fixed bins.

    This is the representation produced by the Agrawal-Srikant iterative
    distribution reconstruction (:mod:`repro.randomization.
    distribution_recon`): probabilities over a discretized support.

    Parameters
    ----------
    edges:
        Strictly increasing bin edges, shape ``(n_bins + 1,)``.
    probabilities:
        Non-negative per-bin probabilities, shape ``(n_bins,)``;
        normalized internally to sum to one.
    """

    def __init__(self, edges, probabilities):
        self._edges = check_vector(edges, "edges", min_length=2)
        if np.any(np.diff(self._edges) <= 0.0):
            raise ValidationError("'edges' must be strictly increasing")
        probs = check_vector(probabilities, "probabilities")
        if probs.size != self._edges.size - 1:
            raise ValidationError(
                f"expected {self._edges.size - 1} bin probabilities, "
                f"got {probs.size}"
            )
        if np.any(probs < 0.0):
            raise ValidationError("bin probabilities must be non-negative")
        total = float(probs.sum())
        if total <= 0.0:
            raise ValidationError("bin probabilities must sum to > 0")
        self._probs = probs / total
        self._widths = np.diff(self._edges)
        self._density = self._probs / self._widths
        self._centers = (self._edges[:-1] + self._edges[1:]) / 2.0

    @classmethod
    def from_samples(cls, samples, *, bins: int = 64) -> "HistogramDensity":
        """Fit a histogram density to raw samples."""
        data = check_vector(samples, "samples", min_length=2)
        counts, edges = np.histogram(data, bins=bins)
        total = counts.sum()
        if total == 0:
            raise ValidationError("'samples' produced an empty histogram")
        return cls(edges, counts / total)

    @property
    def edges(self) -> np.ndarray:
        """Bin edges, length ``n_bins + 1``."""
        return self._edges.copy()

    @property
    def centers(self) -> np.ndarray:
        """Bin midpoints, length ``n_bins``."""
        return self._centers.copy()

    @property
    def probabilities(self) -> np.ndarray:
        """Per-bin probabilities (sum to one)."""
        return self._probs.copy()

    def pdf(self, x) -> np.ndarray:
        """Bin density ``p_k / width_k`` at each point; 0 outside the bins."""
        array = self._as_array(x)
        index = np.searchsorted(self._edges, array, side="right") - 1
        # Points exactly on the last edge belong to the last bin.
        index = np.where(
            array == self._edges[-1], self._density.size - 1, index
        )
        inside = (index >= 0) & (index < self._density.size)
        safe = np.clip(index, 0, self._density.size - 1)
        return np.where(inside, self._density[safe], 0.0)

    @property
    def mean(self) -> float:
        """Probability-weighted bin-midpoint mean."""
        return float(self._probs @ self._centers)

    @property
    def variance(self) -> float:
        """Mixture-of-uniforms variance: between-bin plus within-bin terms."""
        between = float(self._probs @ (self._centers - self.mean) ** 2)
        within = float(self._probs @ (self._widths**2 / 12.0))
        return between + within

    def support(self, coverage: float = 0.9999) -> tuple[float, float]:
        """The full binned interval ``[edges[0], edges[-1]]``."""
        check_in_range(coverage, "coverage", low=0.0, high=1.0,
                       inclusive_low=False)
        return (float(self._edges[0]), float(self._edges[-1]))

    def sample(self, size: int, rng=None) -> np.ndarray:
        """Pick bins by probability, then draw uniformly within each bin."""
        generator = as_generator(rng)
        index = generator.choice(self._probs.size, size=size, p=self._probs)
        left = self._edges[index]
        return left + generator.random(size) * self._widths[index]

    def __repr__(self) -> str:
        return f"HistogramDensity(n_bins={self._probs.size})"


def _gaussian_halfwidth(coverage: float) -> float:
    """Two-sided standard-normal quantile for a coverage probability."""
    check_in_range(coverage, "coverage", low=0.0, high=1.0,
                   inclusive_low=False, inclusive_high=False)
    # scipy's erfinv, imported here so that only callers load scipy.  The
    # standard library's NormalDist().inv_cdf((1 + coverage) / 2) would
    # avoid scipy and agrees to 5e-12 relative, but it differs in the
    # last bits, and the distribution-reconstruction grids built from
    # this halfwidth are pinned bit for bit.
    from scipy.special import erfinv

    return math.sqrt(2.0) * float(erfinv(coverage))
