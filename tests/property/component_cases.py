"""Representative component specs shared by the property suites.

One or more constructions per registered scheme, attack and dataset
generator, keyed by registry kind -- several per kind where defaults
and explicit options take different code paths.  The round-trip suite
guards that every registered kind has an entry here.
"""

import numpy as np
import pytest

from repro.data.spectra import two_level_spectrum

M = 6
SPECTRUM = two_level_spectrum(M, 2, total_variance=100.0 * M).tolist()
_COV = np.diag(np.linspace(4.0, 1.0, M))
_CORR = np.eye(M).tolist()

SCHEME_CASES = {
    "additive": [
        {"kind": "additive", "std": 5.0},
        {"kind": "additive", "std": 2.0, "family": "uniform"},
    ],
    "correlated": [
        {"kind": "correlated", "covariance": _COV.tolist()},
    ],
}

ATTACK_CASES = {
    "ndr": [{"kind": "ndr"}],
    "udr": [
        {"kind": "udr"},
        {"kind": "udr", "prior": "reconstructed", "n_grid": 65, "n_bins": 16},
    ],
    "sf": [{"kind": "sf", "tolerance": 0.1}],
    "pca-dr": [
        {"kind": "pca-dr"},
        {"kind": "pca-dr", "selector": {"kind": "fixed", "count": 2}},
        {"kind": "pca-dr", "selector": {"kind": "energy", "fraction": 0.9},
         "covariance_estimator": "ledoit-wolf"},
        {"kind": "pca-dr", "selector": {"kind": "largest-gap", "max_rank": 3}},
    ],
    "be-dr": [
        {"kind": "be-dr"},
        {"kind": "be-dr", "oracle_covariance": _COV.tolist(),
         "oracle_mean": [0.0] * M},
    ],
    "wiener": [{"kind": "wiener", "window": 5}],
    "kalman": [{"kind": "kalman", "max_spectral_radius": 0.9}],
    "conditional": [
        {"kind": "conditional", "known_indices": [0],
         "known_values": [[0.0]] * 40},
    ],
}

DATASET_CASES = {
    "synthetic": [
        {"kind": "synthetic", "spectrum": SPECTRUM},
        {"kind": "synthetic", "spectrum": SPECTRUM, "mean": [1.0] * M},
    ],
    "copula": [
        {"kind": "copula", "correlation": _CORR, "marginal": "lognormal",
         "target_std": 2.0},
        {"kind": "copula", "spectrum": SPECTRUM, "marginal": "bimodal",
         "basis_seed": 5},
    ],
    "census": [{"kind": "census", "scale": 2.0}],
    "var": [
        {"kind": "var", "coefficient": 0.6, "innovation_std": 1.5,
         "n_channels": 3},
    ],
}


def flatten(cases):
    return [
        pytest.param(kind, spec, id=f"{kind}-{index}")
        for kind, specs in sorted(cases.items())
        for index, spec in enumerate(specs)
    ]
