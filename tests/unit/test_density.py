"""Unit tests for repro.stats.density."""

import statistics

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.stats.density import (
    GaussianDensity,
    HistogramDensity,
    UniformDensity,
    _gaussian_halfwidth,
)


def _integrate(density, lo, hi, n=20001):
    grid = np.linspace(lo, hi, n)
    return float(np.trapezoid(density.pdf(grid), grid))


class TestGaussianDensity:
    def test_pdf_peak_at_mean(self):
        density = GaussianDensity(2.0, 1.5)
        assert density.pdf(2.0) == pytest.approx(
            1.0 / (1.5 * np.sqrt(2 * np.pi))
        )

    def test_integrates_to_one(self):
        density = GaussianDensity(0.0, 2.0)
        assert _integrate(density, -20, 20) == pytest.approx(1.0, abs=1e-6)

    def test_moments(self):
        density = GaussianDensity(-1.0, 3.0)
        assert density.mean == -1.0
        assert density.variance == 9.0
        assert density.std == 3.0

    def test_support_covers_samples(self):
        density = GaussianDensity(5.0, 2.0)
        lo, hi = density.support(0.999)
        samples = density.sample(2000, rng=0)
        assert np.mean((samples >= lo) & (samples <= hi)) > 0.99

    @pytest.mark.parametrize(
        "coverage, quantile",
        [(0.9, 1.6448536269514722), (0.95, 1.959963984540054),
         (0.9999, 3.890591886413125)],
    )
    def test_halfwidth_is_the_two_sided_normal_quantile(self, coverage, quantile):
        halfwidth = _gaussian_halfwidth(coverage)
        assert halfwidth == pytest.approx(quantile, rel=1e-12)
        assert halfwidth == pytest.approx(
            statistics.NormalDist().inv_cdf((1.0 + coverage) / 2.0), rel=5e-12
        )
        assert GaussianDensity(1.0, 2.0).support(coverage) == pytest.approx(
            (1.0 - 2.0 * halfwidth, 1.0 + 2.0 * halfwidth)
        )

    def test_sample_moments(self):
        samples = GaussianDensity(3.0, 2.0).sample(50000, rng=1)
        assert samples.mean() == pytest.approx(3.0, abs=0.05)
        assert samples.std() == pytest.approx(2.0, abs=0.05)

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValidationError):
            GaussianDensity(0.0, 0.0)


class TestUniformDensity:
    def test_pdf_inside_and_outside(self):
        density = UniformDensity(-2.0, 2.0)
        assert density.pdf(0.0) == pytest.approx(0.25)
        assert density.pdf(3.0) == 0.0
        assert density.pdf(-2.0) == pytest.approx(0.25)

    def test_moments(self):
        density = UniformDensity(0.0, 6.0)
        assert density.mean == 3.0
        assert density.variance == pytest.approx(3.0)

    def test_support_is_exact(self):
        assert UniformDensity(1.0, 4.0).support() == (1.0, 4.0)

    def test_sample_range(self):
        samples = UniformDensity(-1.0, 1.0).sample(1000, rng=2)
        assert samples.min() >= -1.0 and samples.max() <= 1.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            UniformDensity(2.0, 1.0)


class TestHistogramDensity:
    def _simple(self):
        return HistogramDensity(
            edges=[0.0, 1.0, 2.0, 4.0], probabilities=[0.2, 0.3, 0.5]
        )

    def test_pdf_values(self):
        density = self._simple()
        assert density.pdf(0.5) == pytest.approx(0.2)
        assert density.pdf(1.5) == pytest.approx(0.3)
        assert density.pdf(3.0) == pytest.approx(0.25)  # 0.5 / width 2
        assert density.pdf(-1.0) == 0.0
        assert density.pdf(5.0) == 0.0

    def test_last_edge_belongs_to_last_bin(self):
        assert self._simple().pdf(4.0) == pytest.approx(0.25)

    def test_integrates_to_one(self):
        assert _integrate(self._simple(), -1, 5) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_mean(self):
        density = self._simple()
        expected = 0.2 * 0.5 + 0.3 * 1.5 + 0.5 * 3.0
        assert density.mean == pytest.approx(expected)

    def test_variance_positive_and_sensible(self):
        density = self._simple()
        samples = density.sample(200000, rng=0)
        assert density.variance == pytest.approx(samples.var(), rel=0.05)

    def test_from_samples_roundtrip(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(0.0, 1.0, size=5000)
        density = HistogramDensity.from_samples(samples, bins=40)
        assert density.mean == pytest.approx(0.0, abs=0.1)
        assert density.variance == pytest.approx(1.0, abs=0.15)

    def test_probabilities_normalized(self):
        density = HistogramDensity([0.0, 1.0, 2.0], [2.0, 6.0])
        np.testing.assert_allclose(density.probabilities, [0.25, 0.75])

    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ValidationError):
            HistogramDensity([0.0, 0.0, 1.0], [0.5, 0.5])

    def test_rejects_wrong_probability_count(self):
        with pytest.raises(ValidationError):
            HistogramDensity([0.0, 1.0, 2.0], [1.0])

    def test_rejects_negative_probability(self):
        with pytest.raises(ValidationError):
            HistogramDensity([0.0, 1.0, 2.0], [-0.5, 1.5])

    def test_sample_within_support(self):
        samples = self._simple().sample(1000, rng=3)
        assert samples.min() >= 0.0 and samples.max() <= 4.0
