"""Engine task functions for the built-in figure and ablation specs.

Every function here is one serializable unit of experiment work with the
engine task signature ``task(params, rng) -> dict`` (see
:mod:`repro.engine.jobs`).  They live at module level so process-pool
workers can resolve them by their ``"repro.experiments.tasks:<name>"``
reference, and they return plain JSON-serializable payloads so the
result cache can persist them.

Figure jobs in moment space
---------------------------
The figure tasks (:func:`two_level_trial`, :func:`correlated_noise_trial`)
build no table.  Their data and noise are Gaussian and all their attacks
are affine in ``Y``, so every score is a function of the joint sample
mean and scatter of ``(X, R)``, which
:func:`~repro.data.synthetic.sample_moments` draws from their exact law;
the scores have the distribution the literal Section 7.1 procedure
(draw ``X``, add ``R``) gives them, not its bits.  That procedure is
still :class:`~repro.core.pipeline.AttackPipeline` over
:func:`~repro.data.synthetic.generate_dataset`, which the ablations,
the registry specs and the examples run.

Determinism contract
--------------------
Figure tasks consume the single engine-derived generator sequentially,
so a task run under any executor is bit-identical to a serial run.  The
seed lineage of a figure job is: the eigenbasis
(:meth:`~repro.data.covariance_builder.CovarianceModel.from_spectrum`),
then the noise design (Figure 4; it draws nothing), then the scatter,
then the mean.  Ablation tasks reproduce the historical explicit integer
seeding instead: they carry their seeds in ``params`` and ignore the
``rng`` argument (their specs use ``seed_root=None``).
"""

from __future__ import annotations

import numpy as np

from repro.core.defense import NoiseDesigner
from repro.core.pipeline import AttackPipeline, evaluate_attacks
from repro.data.copula import GaussianCopulaGenerator
from repro.data.covariance_builder import CovarianceModel
from repro.data.synthetic import generate_dataset, sample_moments
from repro.mining.naive_bayes import utility_report
from repro.randomization.additive import AdditiveNoiseScheme
from repro.randomization.correlated import CorrelatedNoiseScheme
from repro.reconstruction.bedr import BayesEstimateReconstructor
from repro.reconstruction.pca_dr import PCAReconstructor
from repro.reconstruction.selection import (
    EnergyFractionSelector,
    FixedCountSelector,
    LargestGapSelector,
)
from repro.reconstruction.spectral_filtering import (
    SpectralFilteringReconstructor,
)
from repro.reconstruction.udr import UnivariateReconstructor
from repro.telemetry import trace

__all__ = [
    "two_level_trial",
    "correlated_noise_trial",
    "theorem52_check",
    "ablation_selection_workload",
    "ablation_covariance_point",
    "ablation_samplesize_point",
    "ablation_utility_scheme",
    "ablation_marginals_shape",
]


def _figure_attacks() -> dict:
    """The four-curve battery of Experiments 1-3."""
    return {
        "UDR": UnivariateReconstructor(prior="gaussian"),
        "SF": SpectralFilteringReconstructor(),
        "PCA-DR": PCAReconstructor(),
        "BE-DR": BayesEstimateReconstructor(),
    }


def _basis(params, rng) -> CovarianceModel:
    """The job's population covariance: the spectrum in a random basis."""
    with trace.span("data.basis"):
        return CovarianceModel.from_spectrum(
            np.asarray(params["spectrum"], dtype=np.float64), rng
        )


def _rmse(dataset, attacks) -> dict:
    outcomes = evaluate_attacks(dataset, attacks)
    return {name: outcome.rmse for name, outcome in outcomes.items()}


def two_level_trial(params, rng):
    """One (sweep-point, trial) run of Experiments 1-3.

    params: ``spectrum`` (eigenvalue list), ``n_records``, ``noise_std``.
    Returns ``{"rmse": {method: value}}`` for the four figure attacks.
    """
    model = _basis(params, rng)
    std = float(params["noise_std"])
    noise_model = AdditiveNoiseScheme(std).noise_model(model.dim)
    dataset = sample_moments(
        int(params["n_records"]),
        model.root,
        std * np.eye(model.dim),
        noise_model,
        rng,
    )
    return {"rmse": _rmse(dataset, _figure_attacks())}


def correlated_noise_trial(params, rng):
    """One (profile, trial) run of Experiment 4 (Section 8.2 defense).

    params: ``spectrum``, ``n_records``, ``noise_power``, ``profile``.
    Returns the three curve RMSEs plus the measured Definition-8.1
    dissimilarity of the designed noise.
    """
    model = _basis(params, rng)
    designer = NoiseDesigner(model, noise_power=float(params["noise_power"]))
    designed = designer.design(float(params["profile"]))
    dataset = sample_moments(
        int(params["n_records"]),
        model.root,
        designed.noise_model.root,
        designed.scheme.noise_model(model.dim),
        rng,
    )
    attacks = {
        "SF": SpectralFilteringReconstructor(),
        "PCA-DR": PCAReconstructor(),
        "BE-DR": BayesEstimateReconstructor(),
    }
    return {
        "rmse": _rmse(dataset, attacks),
        "dissimilarity": float(designed.dissimilarity),
    }


def theorem52_check(params, rng):
    """Empirical Theorem-5.2 energies for every component count.

    params: ``n_attributes``, ``component_counts``, ``noise_std``,
    ``n_records``.  Returns the empirical and analytic mean-square
    values, aligned with ``component_counts``.
    """
    from repro.linalg.gram_schmidt import random_orthogonal

    n_attributes = int(params["n_attributes"])
    noise_std = float(params["noise_std"])
    basis = random_orthogonal(n_attributes, rng)
    noise = rng.normal(
        0.0, noise_std, size=(int(params["n_records"]), n_attributes)
    )
    empirical = []
    analytic = []
    for p in params["component_counts"]:
        q = basis[:, : int(p)]
        projected = noise @ q @ q.T
        empirical.append(float(np.mean(projected**2)))
        analytic.append(noise_std**2 * int(p) / n_attributes)
    return {"empirical": empirical, "analytic": analytic}


def ablation_selection_workload(params, rng):
    """A2 — the three PCA-DR selection rules on one workload spectrum.

    params: ``spectrum``, ``n_principal``, ``n_records``, ``noise_std``,
    ``data_seed``, ``attack_seed``.
    """
    n_principal = int(params["n_principal"])
    selectors = {
        f"oracle-fixed({n_principal})": FixedCountSelector(n_principal),
        "energy(0.95)": EnergyFractionSelector(0.95),
        "largest-gap": LargestGapSelector(),
    }
    pipeline = AttackPipeline(
        AdditiveNoiseScheme(std=float(params["noise_std"])),
        {name: PCAReconstructor(sel) for name, sel in selectors.items()},
    )
    dataset = generate_dataset(
        spectrum=np.asarray(params["spectrum"], dtype=np.float64),
        n_records=int(params["n_records"]),
        rng=int(params["data_seed"]),
    )
    report = pipeline.run(dataset, rng=int(params["attack_seed"]))
    return {"rmse": {name: report.rmse(name) for name in selectors}}


def ablation_covariance_point(params, rng):
    """A3 — estimated-vs-oracle covariance attacks at one sample size.

    params: ``spectrum``, ``n_records``, ``noise_std``, ``data_seed``,
    ``noise_seed``.
    """
    dataset = generate_dataset(
        spectrum=np.asarray(params["spectrum"], dtype=np.float64),
        n_records=int(params["n_records"]),
        rng=int(params["data_seed"]),
    )
    scheme = AdditiveNoiseScheme(std=float(params["noise_std"]))
    disguised = scheme.disguise(dataset.values, rng=int(params["noise_seed"]))
    oracle_cov = dataset.population_covariance
    attacks = {
        "PCA-estimated": PCAReconstructor(),
        "PCA-oracle": PCAReconstructor(oracle_covariance=oracle_cov),
        "BE-estimated": BayesEstimateReconstructor(),
        "BE-oracle": BayesEstimateReconstructor(
            oracle_covariance=oracle_cov, oracle_mean=dataset.mean
        ),
    }
    outcomes = evaluate_attacks(disguised, attacks)
    return {"rmse": {name: outcome.rmse for name, outcome in outcomes.items()}}


def ablation_samplesize_point(params, rng):
    """A4 — the three-attack battery at one published-record count.

    params: ``spectrum``, ``n_records``, ``noise_std``, ``data_seed``,
    ``attack_seed``.
    """
    dataset = generate_dataset(
        spectrum=np.asarray(params["spectrum"], dtype=np.float64),
        n_records=int(params["n_records"]),
        rng=int(params["data_seed"]),
    )
    pipeline = AttackPipeline(
        AdditiveNoiseScheme(std=float(params["noise_std"])),
        {
            "UDR": UnivariateReconstructor(),
            "PCA-DR": PCAReconstructor(),
            "BE-DR": BayesEstimateReconstructor(),
        },
    )
    report = pipeline.run(dataset, rng=int(params["attack_seed"]))
    return {
        "rmse": {name: report.rmse(name) for name in pipeline.attack_names}
    }


def _classed_data(n, n_attributes, data_seed):
    """A5's two-class training/test generator (unchanged seeding)."""
    from repro.data.covariance_builder import CovarianceModel
    from repro.stats.mvn import MultivariateNormal

    rng = np.random.default_rng(data_seed)
    model = CovarianceModel.from_spectrum(
        np.sort(rng.uniform(2.0, 40.0, n_attributes))[::-1],
        rng=data_seed,
    )
    half = n // 2
    offset = np.full(n_attributes, 6.0)
    class0 = MultivariateNormal(np.zeros(n_attributes), model.matrix).sample(
        half, rng=rng
    )
    class1 = MultivariateNormal(offset, model.matrix).sample(half, rng=rng)
    features = np.vstack([class0, class1])
    labels = np.array([0] * half + [1] * half)
    order = rng.permutation(n)
    return features[order], labels[order], model


def ablation_utility_scheme(params, rng):
    """A5 — naive-Bayes utility of one disguise scheme.

    params: ``scheme`` ("iid" or "correlated"), ``scheme_index``,
    ``n_train``, ``n_test``, ``n_attributes``, ``noise_std``, ``seed``.
    The train/test draw is seed-determined, so regenerating it per job
    keeps schemes independent without changing any number.
    """
    n_attributes = int(params["n_attributes"])
    noise_std = float(params["noise_std"])
    seed = int(params["seed"])
    train_x, train_y, model = _classed_data(
        int(params["n_train"]), n_attributes, seed
    )
    test_x, test_y, _ = _classed_data(
        int(params["n_test"]), n_attributes, seed + 99
    )
    if params["scheme"] == "iid":
        scheme = AdditiveNoiseScheme(std=noise_std)
    elif params["scheme"] == "correlated":
        scheme = CorrelatedNoiseScheme.matching_data_covariance(
            model.matrix, noise_power=n_attributes * noise_std**2
        )
    else:
        raise ValueError(f"unknown scheme {params['scheme']!r}")
    disguised = scheme.disguise(
        train_x, rng=seed + int(params["scheme_index"]) + 1
    )
    report = utility_report(
        train_x,
        disguised.disguised,
        train_y,
        test_x,
        test_y,
        noise_covariance=disguised.noise_model.covariance,
    )
    return {
        key: float(report[key])
        for key in ("original", "disguised_naive", "disguised_corrected")
    }


def ablation_marginals_shape(params, rng):
    """A6 — the attack battery on one non-normal marginal shape.

    params: ``spectrum``, ``marginal``, ``n_records``, ``noise_std``,
    ``copula_seed``, ``sample_seed``, ``attack_seed``.
    """
    generator = GaussianCopulaGenerator.from_spectrum(
        np.asarray(params["spectrum"], dtype=np.float64),
        marginal=params["marginal"],
        target_std=10.0,
        rng=int(params["copula_seed"]),
    )
    table = generator.sample(
        int(params["n_records"]), rng=int(params["sample_seed"])
    )
    pipeline = AttackPipeline(
        AdditiveNoiseScheme(std=float(params["noise_std"])),
        {
            "UDR": UnivariateReconstructor(),
            "PCA-DR": PCAReconstructor(),
            "BE-DR": BayesEstimateReconstructor(),
        },
    )
    report = pipeline.run(table, rng=int(params["attack_seed"]))
    return {
        "rmse": {name: report.rmse(name) for name in pipeline.attack_names}
    }
