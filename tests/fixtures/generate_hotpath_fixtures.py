"""Regenerate the hot-path seed-equivalence fixtures.

The fixtures pin the numerical outputs of every routine touched by the
PR-3 vectorization pass.  They were generated from the commit *before*
the vectorization (``e1c29aa``) so the regression tests in
``tests/unit/test_hotpath_regression.py`` prove the rewritten code
reproduces the original results — bit-identical where the rewrite only
reorders Python-level control flow, and within the documented tolerance
where floating-point summation order legitimately changed (see each
test for the tolerance and its justification).

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/generate_hotpath_fixtures.py

Only rerun this against a commit whose outputs are the accepted
reference; regenerating it against a broken tree would mask regressions.
The committed file also holds the keys of routines that have since been
deleted (MAP-GD, KDE, the EM mixture fit, the breach metrics); nothing
reads them, and this script no longer writes them.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.linalg.covariance import ledoit_wolf_covariance
from repro.randomization.base import NoiseModel
from repro.randomization.distribution_recon import reconstruct_distribution
from repro.reconstruction.udr import UnivariateReconstructor
from repro.reconstruction.wiener import WienerSmootherReconstructor
from repro.stats.density import GaussianDensity

OUT = pathlib.Path(__file__).parent / "hotpath_regression.npz"


def main() -> None:
    fixtures: dict[str, np.ndarray] = {}
    rng = np.random.default_rng(20050703)

    # --- Agrawal-Srikant distribution reconstruction (EM deconvolution)
    original = np.concatenate(
        [rng.normal(-2.0, 0.6, 600), rng.normal(3.0, 1.0, 400)]
    )
    noise = GaussianDensity(0.0, 1.5)
    disguised = original + noise.sample(original.size, rng)
    hist = reconstruct_distribution(disguised, noise, n_bins=48)
    fixtures["recon_edges"] = hist.edges
    fixtures["recon_probs"] = hist.probabilities
    fixtures["recon_input"] = disguised

    # --- UDR with the reconstructed (non-parametric) prior
    table = np.column_stack([disguised[:500], 0.9 * disguised[:500] - 1.0])
    model = NoiseModel(covariance=2.25 * np.eye(2), mean=np.zeros(2))
    udr = UnivariateReconstructor(prior="reconstructed", n_bins=32)
    fixtures["udr_estimate"] = udr.reconstruct(table, model).estimate

    # The deleted KDE fixture drew its samples here; the draw stays so
    # the sections below see the stream the committed file was made with.
    rng.normal(1.0, 2.0, 3000)

    # --- Wiener smoother on a slow sinusoid + noise
    t = np.arange(4000, dtype=np.float64)
    signal = np.column_stack(
        [np.sin(2.0 * np.pi * t / 400.0), np.cos(2.0 * np.pi * t / 250.0)]
    ) * 10.0
    series_noise = rng.normal(0.0, 2.0, signal.shape)
    series_model = NoiseModel(covariance=4.0 * np.eye(2), mean=np.zeros(2))
    wiener = WienerSmootherReconstructor(window=21)
    fixtures["wiener_estimate"] = wiener.reconstruct(
        signal + series_noise, series_model
    ).estimate
    fixtures["wiener_input"] = signal + series_noise

    # --- Ledoit-Wolf shrinkage covariance
    lw_data = rng.multivariate_normal(
        np.zeros(6),
        np.diag([9.0, 6.0, 4.0, 1.0, 0.5, 0.25]) + 0.4,
        size=300,
    )
    lw_cov, lw_shrink = ledoit_wolf_covariance(lw_data)
    fixtures["lw_data"] = lw_data
    fixtures["lw_cov"] = lw_cov
    fixtures["lw_shrinkage"] = np.array([lw_shrink])

    np.savez_compressed(OUT, **fixtures)
    print(f"wrote {OUT} ({len(fixtures)} arrays)")


if __name__ == "__main__":
    main()
