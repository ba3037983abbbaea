"""Seed-equivalence regression tests for the hot-path vectorization.

Fixtures in ``tests/fixtures/hotpath_regression.npz`` were generated by
``tests/fixtures/generate_hotpath_fixtures.py`` against the tree
*before* the hot paths were vectorized.  The file cannot be regenerated
from a later tree, so it stays as recorded, keys of since-deleted
routines included.  Each test proves the rewritten code reproduces the
historical outputs:

* **bit-identical** where the rewrite only hoisted loop-invariant work
  or batched independent trajectories (Agrawal-Srikant distribution
  reconstruction, UDR with a reconstructed prior, Wiener);
* **within a documented tolerance** where floating-point summation
  order legitimately changed: Ledoit-Wolf's dispersion term uses the
  algebraically equal closed form
  ``sum_k (x_k . x_k)^2 - n ||S||_F^2``, which cancels two large sums —
  asserted at ``rtol=1e-7`` on the shrinkage intensity and
  ``rtol=1e-9`` on the covariance.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.linalg.covariance import ledoit_wolf_covariance
from repro.randomization.base import NoiseModel
from repro.randomization.distribution_recon import reconstruct_distribution
from repro.reconstruction.udr import UnivariateReconstructor
from repro.reconstruction.wiener import WienerSmootherReconstructor
from repro.stats.density import GaussianDensity

FIXTURE_PATH = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "hotpath_regression.npz"
)


@pytest.fixture(scope="module")
def fx():
    return np.load(FIXTURE_PATH)


def test_distribution_reconstruction_bit_identical(fx):
    noise = GaussianDensity(0.0, 1.5)
    hist = reconstruct_distribution(fx["recon_input"], noise, n_bins=48)
    np.testing.assert_array_equal(hist.edges, fx["recon_edges"])
    np.testing.assert_array_equal(hist.probabilities, fx["recon_probs"])


def test_udr_reconstructed_prior_bit_identical(fx):
    disguised = fx["recon_input"]
    table = np.column_stack([disguised[:500], 0.9 * disguised[:500] - 1.0])
    model = NoiseModel(covariance=2.25 * np.eye(2), mean=np.zeros(2))
    attack = UnivariateReconstructor(prior="reconstructed", n_bins=32)
    estimate = attack.reconstruct(table, model).estimate
    np.testing.assert_array_equal(estimate, fx["udr_estimate"])


def test_wiener_bit_identical(fx):
    model = NoiseModel(covariance=4.0 * np.eye(2), mean=np.zeros(2))
    attack = WienerSmootherReconstructor(window=21)
    estimate = attack.reconstruct(fx["wiener_input"], model).estimate
    np.testing.assert_array_equal(estimate, fx["wiener_estimate"])


def test_ledoit_wolf_within_documented_tolerance(fx):
    cov, shrinkage = ledoit_wolf_covariance(fx["lw_data"])
    np.testing.assert_allclose(cov, fx["lw_cov"], rtol=1e-9)
    assert shrinkage == pytest.approx(fx["lw_shrinkage"][0], rel=1e-7)
