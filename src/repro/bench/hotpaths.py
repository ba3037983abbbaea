"""Micro-benchmarks for the numerical hot paths.

Each routine the PR-3 vectorization pass touched (and the BLAS-bound
paths kept for trajectory) is timed at two scales:

``smoke``
    Small inputs, sub-second each — the variant CI runs on every push.
``large``
    Paper-scale inputs with ``n_records >= 10^5`` — the regime the
    acceptance criteria ("at least two hot paths >= 2x faster") are
    measured in.

Setup (data generation, attack construction) happens outside the timed
callable, so timings isolate the routine itself.  All inputs derive
from fixed seeds: a timing difference between two runs is load or code,
never workload.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import register_benchmark

__all__ = []  # everything here registers via side effect


def _mixture_sample(n: int, seed: int) -> np.ndarray:
    """Bimodal sample: the classic deconvolution stress workload."""
    rng = np.random.default_rng(seed)
    n_lo = int(0.6 * n)
    return np.concatenate(
        [rng.normal(-2.0, 0.6, n_lo), rng.normal(3.0, 1.0, n - n_lo)]
    )


def _correlated_table(n: int, m: int, n_principal: int, seed: int):
    """Correlated (n, m) table + its i.i.d.-noise disguised version."""
    from repro.data.spectra import two_level_spectrum
    from repro.randomization.base import NoiseModel

    rng = np.random.default_rng(seed)
    spectrum = np.asarray(
        two_level_spectrum(
            m, n_principal, total_variance=100.0 * m, non_principal_value=4.0
        )
    )
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    latent = rng.standard_normal((n, m)) * np.sqrt(spectrum)
    original = latent @ basis.T
    noise_std = 5.0
    disguised = original + rng.normal(0.0, noise_std, original.shape)
    model = NoiseModel(
        covariance=noise_std**2 * np.eye(m), mean=np.zeros(m)
    )
    return original, disguised, model


# ----------------------------------------------------------------------
# Agrawal-Srikant EM distribution reconstruction (Figure-1 prior source)
# ----------------------------------------------------------------------
def _em_recon_setup(n: int, n_bins: int, seed: int):
    from repro.randomization.distribution_recon import reconstruct_distribution
    from repro.stats.density import GaussianDensity

    noise = GaussianDensity(0.0, 1.5)
    rng = np.random.default_rng(seed)
    disguised = _mixture_sample(n, seed) + rng.normal(0.0, 1.5, n)

    def run():
        return reconstruct_distribution(disguised, noise, n_bins=n_bins)

    return run


@register_benchmark(
    "hotpath.em_recon.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 2_000, "n_bins": 32},
)
def _em_recon_smoke():
    return _em_recon_setup(2_000, 32, seed=101)


@register_benchmark(
    "hotpath.em_recon.large",
    group="hotpath",
    tags=("large",),
    params={"n_records": 100_000, "n_bins": 64},
    repeat=3,
)
def _em_recon_large():
    return _em_recon_setup(100_000, 64, seed=101)


# ----------------------------------------------------------------------
# UDR with the reconstructed (non-parametric) prior
# ----------------------------------------------------------------------
def _udr_setup(n: int, n_bins: int, seed: int):
    from repro.randomization.base import NoiseModel
    from repro.reconstruction.udr import UnivariateReconstructor

    rng = np.random.default_rng(seed)
    disguised = (_mixture_sample(n, seed) + rng.normal(0.0, 1.5, n)).reshape(
        n, 1
    )
    model = NoiseModel(covariance=2.25 * np.eye(1), mean=np.zeros(1))
    attack = UnivariateReconstructor(prior="reconstructed", n_bins=n_bins)

    def run():
        return attack.reconstruct(disguised, model)

    return run


@register_benchmark(
    "hotpath.udr_reconstructed.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 1_000, "n_bins": 32},
)
def _udr_smoke():
    return _udr_setup(1_000, 32, seed=202)


@register_benchmark(
    "hotpath.udr_reconstructed.large",
    group="hotpath",
    tags=("large",),
    params={"n_records": 100_000, "n_bins": 64},
    repeat=3,
)
def _udr_large():
    return _udr_setup(100_000, 64, seed=202)


# ----------------------------------------------------------------------
# MAP gradient ascent under a mixture prior (Section 6 numerical path)
# ----------------------------------------------------------------------
def _map_gd_setup(n: int, max_iter: int, seed: int):
    from repro.randomization.base import NoiseModel
    from repro.reconstruction.map_gd import MAPGradientReconstructor
    from repro.stats.density import GaussianMixtureDensity

    rng = np.random.default_rng(seed)
    disguised = (_mixture_sample(n, seed) + rng.normal(0.0, 1.5, n)).reshape(
        n, 1
    )
    prior = GaussianMixtureDensity(
        weights=[0.6, 0.4], means=[-2.0, 3.0], stds=[0.6, 1.0]
    )
    model = NoiseModel(covariance=2.25 * np.eye(1), mean=np.zeros(1))
    attack = MAPGradientReconstructor([prior], n_starts=4, max_iter=max_iter)

    def run():
        return attack.reconstruct(disguised, model)

    return run


@register_benchmark(
    "hotpath.map_gd.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 1_000, "max_iter": 40},
)
def _map_gd_smoke():
    return _map_gd_setup(1_000, 40, seed=303)


@register_benchmark(
    "hotpath.map_gd.large",
    group="hotpath",
    tags=("large",),
    params={"n_records": 100_000, "max_iter": 60},
    repeat=3,
)
def _map_gd_large():
    return _map_gd_setup(100_000, 60, seed=303)


# ----------------------------------------------------------------------
# Gaussian KDE evaluation (UDR's f_Y estimate, Section 4.2)
# ----------------------------------------------------------------------
def _kde_setup(n_samples: int, n_eval: int, seed: int):
    from repro.stats.kde import GaussianKDE

    rng = np.random.default_rng(seed)
    kde = GaussianKDE(rng.normal(1.0, 2.0, n_samples))
    grid = np.linspace(-9.0, 11.0, n_eval)

    def run():
        return kde.pdf(grid)

    return run


@register_benchmark(
    "hotpath.kde_pdf.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_samples": 2_000, "n_eval": 500},
)
def _kde_smoke():
    return _kde_setup(2_000, 500, seed=404)


@register_benchmark(
    "hotpath.kde_pdf.large",
    group="hotpath",
    tags=("large",),
    params={"n_samples": 100_000, "n_eval": 10_000},
    repeat=3,
)
def _kde_large():
    return _kde_setup(100_000, 10_000, seed=404)


# ----------------------------------------------------------------------
# Wiener smoother over a long series (Section 3's serial-dependency factor)
# ----------------------------------------------------------------------
def _wiener_setup(n: int, m: int, window: int, seed: int):
    from repro.randomization.base import NoiseModel
    from repro.reconstruction.wiener import WienerSmootherReconstructor

    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    signal = np.column_stack(
        [10.0 * np.sin(2.0 * np.pi * t / (300.0 + 50.0 * j)) for j in range(m)]
    )
    disguised = signal + rng.normal(0.0, 2.0, signal.shape)
    model = NoiseModel(covariance=4.0 * np.eye(m), mean=np.zeros(m))
    attack = WienerSmootherReconstructor(window=window)

    def run():
        return attack.reconstruct(disguised, model)

    return run


@register_benchmark(
    "hotpath.wiener.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 2_000, "m": 2, "window": 21},
)
def _wiener_smoke():
    return _wiener_setup(2_000, 2, 21, seed=505)


@register_benchmark(
    "hotpath.wiener.large",
    group="hotpath",
    tags=("large",),
    params={"n_records": 200_000, "m": 3, "window": 31},
    repeat=3,
)
def _wiener_large():
    return _wiener_setup(200_000, 3, 31, seed=505)


# ----------------------------------------------------------------------
# Spectral filtering + PCA-DR (Section 5 / Section 7.1 eigen paths)
# ----------------------------------------------------------------------
def _sf_setup(n: int, m: int, seed: int):
    from repro.reconstruction.spectral_filtering import (
        SpectralFilteringReconstructor,
    )

    _, disguised, model = _correlated_table(n, m, max(m // 10, 2), seed)
    attack = SpectralFilteringReconstructor()

    def run():
        return attack.reconstruct(disguised, model)

    return run


@register_benchmark(
    "hotpath.spectral_filtering.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 2_000, "m": 20},
)
def _sf_smoke():
    return _sf_setup(2_000, 20, seed=606)


@register_benchmark(
    "hotpath.spectral_filtering.large",
    group="hotpath",
    tags=("large",),
    params={"n_records": 100_000, "m": 50},
    repeat=3,
)
def _sf_large():
    return _sf_setup(100_000, 50, seed=606)


def _pca_setup(n: int, m: int, seed: int):
    from repro.reconstruction.pca_dr import PCAReconstructor

    _, disguised, model = _correlated_table(n, m, max(m // 10, 2), seed)
    attack = PCAReconstructor()

    def run():
        return attack.reconstruct(disguised, model)

    return run


@register_benchmark(
    "hotpath.pca_dr.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 2_000, "m": 20},
)
def _pca_smoke():
    return _pca_setup(2_000, 20, seed=707)


@register_benchmark(
    "hotpath.pca_dr.large",
    group="hotpath",
    tags=("large",),
    params={"n_records": 100_000, "m": 50},
    repeat=3,
)
def _pca_large():
    return _pca_setup(100_000, 50, seed=707)


# ----------------------------------------------------------------------
# The figure attack battery on one dataset (shared statistics)
# ----------------------------------------------------------------------
def _battery_setup(n: int, m: int, seed: int):
    from repro.randomization.base import DisguisedDataset
    from repro.reconstruction import (
        BayesEstimateReconstructor,
        PCAReconstructor,
        SpectralFilteringReconstructor,
        UnivariateReconstructor,
    )

    original, disguised, model = _correlated_table(
        n, m, max(m // 10, 2), seed
    )
    noise = disguised - original
    battery = (
        UnivariateReconstructor(prior="gaussian"),
        SpectralFilteringReconstructor(),
        PCAReconstructor(),
        BayesEstimateReconstructor(),
    )

    def run():
        # A fresh dataset per run: its statistics are computed once and
        # shared by the four attacks, as in a figure job.
        dataset = DisguisedDataset(
            disguised=disguised, noise_model=model, original=original, noise=noise
        )
        return [attack.reconstruct(dataset) for attack in battery]

    return run


@register_benchmark(
    "hotpath.attack_battery.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 2_000, "m": 100},
)
def _battery_smoke():
    return _battery_setup(2_000, 100, seed=808)


# ----------------------------------------------------------------------
# Ledoit-Wolf shrinkage covariance (ablation A3's estimator option)
# ----------------------------------------------------------------------
def _lw_setup(n: int, m: int, seed: int):
    from repro.linalg.covariance import ledoit_wolf_covariance

    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, m)) * np.linspace(3.0, 0.5, m)

    def run():
        return ledoit_wolf_covariance(data)

    return run


@register_benchmark(
    "hotpath.ledoit_wolf.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 1_000, "m": 20},
)
def _lw_smoke():
    return _lw_setup(1_000, 20, seed=808)


@register_benchmark(
    "hotpath.ledoit_wolf.large",
    group="hotpath",
    tags=("large",),
    params={"n_records": 100_000, "m": 40},
    repeat=3,
)
def _lw_large():
    return _lw_setup(100_000, 40, seed=808)


# ----------------------------------------------------------------------
# Univariate Gaussian-mixture EM (non-Gaussian-prior fitting, Section 6)
# ----------------------------------------------------------------------
def _em_fit_setup(n: int, k: int, seed: int):
    from repro.stats.em import UnivariateGaussianMixtureEM

    samples = _mixture_sample(n, seed)
    em = UnivariateGaussianMixtureEM(k, max_iter=500)

    def run():
        return em.fit(samples, rng=np.random.default_rng(7))

    return run


@register_benchmark(
    "hotpath.em_mixture.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_records": 2_000, "k": 2},
)
def _em_fit_smoke():
    return _em_fit_setup(2_000, 2, seed=909)


@register_benchmark(
    "hotpath.em_mixture.large",
    group="hotpath",
    tags=("large",),
    params={"n_records": 100_000, "k": 3},
    repeat=3,
)
def _em_fit_large():
    return _em_fit_setup(100_000, 3, seed=909)


# ----------------------------------------------------------------------
# Discrete breach metrics (Evfimievski-style channel analysis)
# ----------------------------------------------------------------------
def _breach_setup(n_outputs: int, n_inputs: int, seed: int):
    from repro.metrics.breach import amplification_factor, worst_case_posterior

    rng = np.random.default_rng(seed)
    raw = rng.random((n_outputs, n_inputs)) + 0.05
    channel = raw / raw.sum(axis=0, keepdims=True)
    prior = np.full(n_inputs, 1.0 / n_inputs)
    prop = np.arange(0, n_inputs, 7)

    def run():
        worst = worst_case_posterior(prior, channel, prop)
        gamma = amplification_factor(channel)
        return worst, gamma

    return run


@register_benchmark(
    "hotpath.breach_metrics.smoke",
    group="hotpath",
    tags=("smoke",),
    params={"n_outputs": 64, "n_inputs": 128},
)
def _breach_smoke():
    return _breach_setup(64, 128, seed=111)


@register_benchmark(
    "hotpath.breach_metrics.large",
    group="hotpath",
    tags=("large",),
    params={"n_outputs": 4_096, "n_inputs": 2_048},
    repeat=3,
)
def _breach_large():
    return _breach_setup(4_096, 2_048, seed=111)
