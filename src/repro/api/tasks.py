"""The generic engine task executed by component-mode specs.

One function, :func:`attack_point`, is the worker for every declarative
experiment: it instantiates the dataset generator, scheme, and attack
battery from their registry specs (carried in ``params``), runs the
standard generate-disguise-attack-score pipeline, and returns the
scores.  It lives at module level so process-pool workers resolve it by
its ``"repro.api.tasks:attack_point"`` reference.

Determinism: the single engine-derived generator is consumed
sequentially — dataset draw first, then the disguise draw — so results
are bit-identical for any worker count.

Failed attacks do not abort the point: the pipeline records the
exception and the payload carries the nan sentinel (strict JSON has no
``NaN``) plus the error string under ``"errors"``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.pipeline import AttackPipeline
from repro.core.threat_model import ThreatModel
from repro.registry import ATTACKS, DATASETS, SCHEMES
from repro.utils.serialization import sanitize_for_json

__all__ = ["attack_point"]


def attack_point(
    params: dict[str, Any], rng: np.random.Generator | None
) -> dict[str, Any]:
    """One (sweep-point, trial) of a component-driven experiment.

    params: ``dataset`` / ``scheme`` registry specs, ``attacks`` (label
    to attack spec) or ``threat_model``, and ``n_records``.  Returns
    ``{"rmse": {label: value}}`` (nan-sentinel for failures) plus an
    ``"errors"`` mapping when any attack raised.
    """
    generator = DATASETS.create(params["dataset"])
    table = generator.sample(int(params["n_records"]), rng=rng)
    scheme = SCHEMES.create(params["scheme"])
    if "attacks" in params:
        attacks = {
            label: ATTACKS.create(spec)
            for label, spec in params["attacks"].items()
        }
    else:
        attacks = ThreatModel.from_spec(params["threat_model"]).build_attacks()
    # Dataset generators may return rich tables (SyntheticDataset,
    # CensusTable); the pipeline wants the raw matrix.
    values = getattr(table, "values", table)
    report = AttackPipeline(scheme, attacks).run(
        values, rng=rng, fail_fast=False
    )
    payload: dict[str, Any] = {
        "rmse": {
            label: sanitize_for_json(report.rmse(label)) for label in attacks
        }
    }
    failures = report.failures
    if failures:
        payload["errors"] = failures
    return payload
