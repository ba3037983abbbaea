"""Property-based tests for the density objects."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.density import (
    GaussianDensity,
    HistogramDensity,
    UniformDensity,
)

_means = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
_scales = st.floats(min_value=0.05, max_value=20.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def densities(draw):
    kind = draw(st.sampled_from(
        ["gaussian", "uniform", "histogram"]
    ))
    if kind == "gaussian":
        return GaussianDensity(draw(_means), draw(_scales))
    if kind == "uniform":
        low = draw(_means)
        width = draw(_scales)
        return UniformDensity(low, low + width)
    edges = np.cumsum(
        [draw(_means)] + [draw(_scales) for _ in range(draw(
            st.integers(min_value=2, max_value=8)))]
    )
    probs = [draw(st.floats(min_value=0.01, max_value=1.0))
             for _ in range(edges.size - 1)]
    return HistogramDensity(edges, probs)


class TestDensityInvariants:
    @given(density=densities())
    @settings(max_examples=60, deadline=None)
    def test_pdf_non_negative(self, density):
        lo, hi = density.support(0.999)
        grid = np.linspace(lo - 1.0, hi + 1.0, 201)
        assert np.all(density.pdf(grid) >= 0.0)

    @given(density=densities())
    @settings(max_examples=40, deadline=None)
    def test_pdf_integrates_to_one_over_wide_support(self, density):
        lo, hi = density.support(0.9999)
        pad = 0.25 * (hi - lo) + 5.0 * density.std
        # Fine grid: step densities (histograms) need the spacing to be
        # much smaller than a bin for the trapezoid sum to converge.
        grid = np.linspace(lo - pad, hi + pad, 100001)
        mass = np.trapezoid(density.pdf(grid), grid)
        assert 0.97 <= mass <= 1.03

    @given(density=densities())
    @settings(max_examples=40, deadline=None)
    def test_sample_mean_tracks_analytic_mean(self, density):
        samples = density.sample(20000, rng=0)
        tolerance = 6.0 * density.std / np.sqrt(20000) + 1e-6
        scale_tolerance = max(tolerance, 0.05 * max(abs(density.mean), 1.0))
        assert abs(samples.mean() - density.mean) <= scale_tolerance

    @given(density=densities())
    @settings(max_examples=40, deadline=None)
    def test_sample_variance_tracks_analytic_variance(self, density):
        samples = density.sample(20000, rng=1)
        assert np.isclose(
            samples.var(), density.variance,
            rtol=0.15, atol=1e-4,
        )

    @given(density=densities(),
           coverage=st.floats(min_value=0.9, max_value=0.9999))
    @settings(max_examples=40, deadline=None)
    def test_support_contains_requested_mass(self, density, coverage):
        lo, hi = density.support(coverage)
        samples = density.sample(5000, rng=2)
        inside = np.mean((samples >= lo) & (samples <= hi))
        assert inside >= coverage - 0.03

    @given(density=densities())
    @settings(max_examples=30, deadline=None)
    def test_variance_non_negative(self, density):
        assert density.variance >= 0.0
        assert density.std >= 0.0
