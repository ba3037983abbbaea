"""Property-based tests for metric invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.covariance_builder import CovarianceModel
from repro.linalg.covariance import sample_covariance
from repro.metrics.dissimilarity import correlation_dissimilarity
from repro.metrics.error import (
    mean_square_error,
    per_attribute_rmse,
    root_mean_square_error,
)

_entries = st.floats(
    min_value=-1000.0, max_value=1000.0,
    allow_nan=False, allow_infinity=False,
)


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=1, max_value=6))
    a = draw(arrays(np.float64, (n, m), elements=_entries))
    b = draw(arrays(np.float64, (n, m), elements=_entries))
    return a, b


class TestErrorMetricProperties:
    @given(pair=matrix_pairs())
    @settings(max_examples=50, deadline=None)
    def test_mse_non_negative_and_symmetric(self, pair):
        a, b = pair
        assert mean_square_error(a, b) >= 0.0
        assert mean_square_error(a, b) == mean_square_error(b, a)

    @given(pair=matrix_pairs())
    @settings(max_examples=50, deadline=None)
    def test_identity_of_indiscernibles(self, pair):
        a, _ = pair
        assert mean_square_error(a, a) == 0.0

    @given(pair=matrix_pairs())
    @settings(max_examples=50, deadline=None)
    def test_rmse_triangle_inequality(self, pair):
        """RMSE is a metric (scaled Frobenius): d(a,c) <= d(a,b)+d(b,c)."""
        a, b = pair
        c = (a + b) / 2.0
        d_ac = root_mean_square_error(a, c)
        d_ab = root_mean_square_error(a, b)
        d_bc = root_mean_square_error(b, c)
        assert d_ab <= d_ac + d_bc + 1e-9
        assert d_ac <= d_ab + d_bc + 1e-9

    @given(pair=matrix_pairs(),
           scale=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_rmse_absolute_homogeneity(self, pair, scale):
        a, b = pair
        scaled = root_mean_square_error(scale * a, scale * b)
        base = root_mean_square_error(a, b)
        assert np.isclose(scaled, scale * base, rtol=1e-9, atol=1e-12)

    @given(pair=matrix_pairs())
    @settings(max_examples=50, deadline=None)
    def test_per_attribute_aggregates_to_total(self, pair):
        a, b = pair
        per_attr = per_attribute_rmse(a, b)
        total = root_mean_square_error(a, b)
        assert np.isclose(np.sqrt(np.mean(per_attr**2)), total, atol=1e-9)


class TestTextbookFormulas:
    """Finite inputs give exactly the textbook value, bit for bit.

    The functions check finiteness on their reduced result instead of
    scanning the inputs first; that must not change a single bit.
    """

    @given(pair=matrix_pairs())
    @settings(max_examples=50, deadline=None)
    def test_scores_equal_formula(self, pair):
        a, b = pair
        mse = np.mean((a - b) ** 2)
        assert mean_square_error(a, b) == mse
        assert root_mean_square_error(a, b) == np.sqrt(mse)
        np.testing.assert_array_equal(
            per_attribute_rmse(a, b), np.sqrt(np.mean((a - b) ** 2, axis=0))
        )

    @given(pair=matrix_pairs(), ddof=st.integers(min_value=0, max_value=1))
    @settings(max_examples=50, deadline=None)
    def test_sample_covariance_equals_centred_product(self, pair, ddof):
        a, _ = pair
        n = a.shape[0]
        assume(n > ddof)
        centred = a - a.mean(axis=0)
        cov = centred.T @ centred / (n - ddof)
        np.testing.assert_array_equal(
            sample_covariance(a, ddof=ddof), (cov + cov.T) / 2.0
        )


class TestDissimilarityProperties:
    @given(
        seed_a=st.integers(min_value=0, max_value=2000),
        seed_b=st.integers(min_value=0, max_value=2000),
        m=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounded_symmetric_and_self_zero(self, seed_a, seed_b, m):
        rng = np.random.default_rng(seed_a)
        spectrum = np.sort(rng.uniform(1.0, 50.0, m))[::-1]
        cov_a = CovarianceModel.from_spectrum(spectrum, rng=seed_a).matrix
        cov_b = CovarianceModel.from_spectrum(spectrum, rng=seed_b).matrix
        d_ab = correlation_dissimilarity(cov_a, cov_b, inputs="covariance")
        d_ba = correlation_dissimilarity(cov_b, cov_a, inputs="covariance")
        assert 0.0 <= d_ab <= 2.0
        assert np.isclose(d_ab, d_ba, atol=1e-12)
        assert correlation_dissimilarity(
            cov_a, cov_a, inputs="covariance"
        ) == 0.0

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        m=st.integers(min_value=2, max_value=8),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed, m, scale):
        """Correlations ignore scale: Dis(C, cC) = 0."""
        rng = np.random.default_rng(seed)
        spectrum = np.sort(rng.uniform(1.0, 50.0, m))[::-1]
        cov = CovarianceModel.from_spectrum(spectrum, rng=seed).matrix
        assert correlation_dissimilarity(
            cov, scale * cov, inputs="covariance"
        ) < 1e-9

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        m=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_literal_convention_smaller_than_rms(self, seed, m):
        """literal = rms / sqrt(m^2 - m), so literal <= rms for m >= 2."""
        rng = np.random.default_rng(seed)
        spectrum = np.sort(rng.uniform(1.0, 50.0, m))[::-1]
        cov_a = CovarianceModel.from_spectrum(spectrum, rng=seed).matrix
        cov_b = CovarianceModel.from_spectrum(spectrum, rng=seed + 1).matrix
        rms = correlation_dissimilarity(cov_a, cov_b, inputs="covariance")
        literal = correlation_dissimilarity(
            cov_a, cov_b, inputs="covariance", convention="literal"
        )
        assert literal <= rms + 1e-12
        pairs = m * m - m
        assert np.isclose(literal, rms / np.sqrt(pairs), atol=1e-12)
