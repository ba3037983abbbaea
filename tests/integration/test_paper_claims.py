"""Integration tests asserting the paper's headline claims.

Each test regenerates a (scaled-down) version of one of the paper's
experiments and checks the *qualitative* findings — the orderings,
monotonicities, and crossovers the figures show — rather than absolute
numbers.  These are the reproduction's acceptance tests.
"""

import numpy as np
import pytest

from repro.api import run_spec
from repro.api.builtin import (
    figure1_spec,
    figure2_spec,
    figure3_spec,
    figure4_spec,
    theorem52_spec,
)
from repro.api.config import SweepConfig

# Small-but-stable scale: ~1000 records makes every claim hold with the
# default seed while keeping the whole module under half a minute.
CONFIG = SweepConfig(n_records=1000, seed=2005)


def _series(spec):
    return run_spec(spec).to_series()


@pytest.fixture(scope="module")
def figure1():
    return _series(figure1_spec(CONFIG, attribute_counts=[5, 10, 25, 50, 100]))


@pytest.fixture(scope="module")
def figure2():
    return _series(
        figure2_spec(CONFIG, principal_counts=[2, 10, 30, 60, 100])
    )


@pytest.fixture(scope="module")
def figure3():
    return _series(figure3_spec(CONFIG, eigenvalues=[1, 10, 25, 50]))


@pytest.fixture(scope="module")
def figure4():
    return _series(figure4_spec(CONFIG, profiles=[0.0, 0.5, 1.0, 1.5, 2.0]))


class TestFigure1Claims:
    """Section 7.2: more attributes (higher correlation) => less privacy."""

    def test_udr_flat_across_sweep(self, figure1):
        udr = figure1.curve("UDR")
        assert udr.max() - udr.min() < 0.35

    def test_correlation_attacks_improve_with_m(self, figure1):
        for method in ("SF", "PCA-DR", "BE-DR"):
            curve = figure1.curve(method)
            assert curve[-1] < curve[0] - 1.0, method

    def test_correlation_attacks_beat_udr_at_high_m(self, figure1):
        udr_final = figure1.curve("UDR")[-1]
        for method in ("SF", "PCA-DR", "BE-DR"):
            assert figure1.curve(method)[-1] < udr_final - 1.0, method

    def test_bedr_at_least_matches_pca(self, figure1):
        """Section 7.2: BE-DR achieves better performance than PCA-DR/SF."""
        be = figure1.curve("BE-DR")
        pca = figure1.curve("PCA-DR")
        sf = figure1.curve("SF")
        # Allow a small tolerance at individual points (finite-sample
        # covariance estimation); on average BE must win.
        assert be.mean() <= pca.mean() + 0.02
        assert be.mean() < sf.mean()


class TestFigure2Claims:
    """Section 7.3: more principal components => more privacy."""

    def test_attacks_degrade_as_p_grows(self, figure2):
        for method in ("SF", "PCA-DR", "BE-DR"):
            curve = figure2.curve(method)
            assert curve[-1] > curve[0] + 1.0, method

    def test_udr_flat(self, figure2):
        udr = figure2.curve("UDR")
        assert udr.max() - udr.min() < 0.4

    def test_pca_approaches_ndr_at_full_rank(self, figure2):
        """At p = m PCA-DR filters nothing: RMSE -> sigma (= 5)."""
        assert figure2.curve("PCA-DR")[-1] == pytest.approx(5.0, abs=0.25)

    def test_bedr_stays_best_throughout(self, figure2):
        be = figure2.curve("BE-DR")
        for method in ("SF", "PCA-DR"):
            other = figure2.curve(method)
            assert np.all(be <= other + 0.25), method


class TestFigure3Claims:
    """Section 7.4: large non-principal eigenvalues break PCA filtering."""

    def test_pca_crosses_above_udr(self, figure3):
        udr = figure3.curve("UDR")
        pca = figure3.curve("PCA-DR")
        assert pca[0] < udr[0] - 1.0    # high correlation: PCA wins
        assert pca[-1] > udr[-1]        # low correlation: PCA loses

    def test_sf_also_crosses_above_udr(self, figure3):
        assert figure3.curve("SF")[-1] > figure3.curve("UDR")[-1]

    def test_bedr_never_worse_than_udr(self, figure3):
        """BE-DR converges to UDR from below (Section 7.4)."""
        be = figure3.curve("BE-DR")
        udr = figure3.curve("UDR")
        assert np.all(be <= udr + 0.1)

    def test_sf_close_to_pca_when_nonprincipal_small(self, figure3):
        """Section 7.2's promised check: small non-principal eigenvalues
        make SF and PCA-DR nearly identical."""
        assert figure3.curve("SF")[0] == pytest.approx(
            figure3.curve("PCA-DR")[0], abs=0.15
        )


class TestFigure4Claims:
    """Section 8.2: noise similar to the data defeats the attacks."""

    def test_zero_dissimilarity_point_exists(self, figure4):
        assert figure4.x_values[0] == pytest.approx(0.0, abs=1e-6)

    def test_privacy_best_when_noise_matches_data(self, figure4):
        for method in ("PCA-DR", "BE-DR"):
            curve = figure4.curve(method)
            assert curve[0] == curve.max(), method

    @pytest.mark.parametrize("method", ["PCA-DR", "BE-DR"])
    def test_error_rises_with_similarity(self, figure4, method):
        curve = figure4.curve(method)
        # Strictly harder at matched noise than at independent noise.
        independent_index = figure4.metadata["profiles"].index(1.0)
        assert curve[0] > curve[independent_index] + 0.3

    def test_pca_keeps_improving_past_independent_point(self, figure4):
        pca = figure4.curve("PCA-DR")
        independent_index = figure4.metadata["profiles"].index(1.0)
        assert pca[-1] < pca[independent_index] - 0.5

    def test_sf_behaves_irregularly_right_of_line(self, figure4):
        """SF's bounds assume independent noise; right of the vertical
        line it stops improving while PCA-DR keeps getting better."""
        sf = figure4.curve("SF")
        pca = figure4.curve("PCA-DR")
        independent_index = figure4.metadata["profiles"].index(1.0)
        sf_gain = sf[independent_index] - sf[-1]
        pca_gain = pca[independent_index] - pca[-1]
        assert sf_gain < pca_gain - 0.5

    def test_matched_noise_defeats_correlation_advantage(self, figure4):
        """At dissimilarity 0 the best attack is barely better than the
        nominal noise level sigma = 5."""
        best = min(
            figure4.curve(method)[0] for method in figure4.methods
        )
        assert best > 4.0


class TestTheorem52:
    def test_empirical_matches_analytic(self):
        series = _series(
            theorem52_spec(
                component_counts=(5, 25, 50, 75, 100), n_records=3000
            )
        )
        np.testing.assert_allclose(
            series.curve("empirical"),
            series.curve("analytic"),
            rtol=0.05,
        )
