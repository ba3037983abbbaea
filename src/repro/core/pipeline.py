"""End-to-end attack pipeline: generate, disguise, attack, score.

This is the paper's experimental loop (Section 7.1) as a reusable
object.  Each run produces a :class:`PipelineReport` holding every
attack's reconstruction error, which the built-in specs aggregate into
the figures' series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import SyntheticDataset
from repro.exceptions import ConfigurationError, ValidationError
from repro.metrics.error import per_attribute_rmse, root_mean_square_error
from repro.randomization.base import DisguisedDataset, NoiseModel, RandomizationScheme
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.telemetry import trace
from repro.utils.rng import as_generator
from repro.utils.serialization import (
    restore_from_json,
    sanitize_for_json,
    values_equal,
)

__all__ = ["AttackOutcome", "PipelineReport", "evaluate_attacks", "AttackPipeline"]


@dataclass(frozen=True, eq=False)
class AttackOutcome:
    """One attack's performance on one disguised dataset.

    Attributes
    ----------
    name:
        Attack label (the key used in the attack battery).
    rmse:
        Root mean square reconstruction error — the paper's privacy
        number (lower = less privacy).  ``nan`` for a failed attack.
    attribute_rmse:
        Per-attribute breakdown, shape ``(m,)`` (all-``nan`` on failure).
    result:
        The full :class:`ReconstructionResult` with method diagnostics,
        or ``None`` when the attack raised.
    error:
        ``None`` on success; otherwise ``"ExceptionType: message"`` for
        the exception the attack raised (recorded instead of aborting
        when :func:`evaluate_attacks` runs with ``fail_fast=False``).
    """

    name: str
    rmse: float
    attribute_rmse: np.ndarray
    result: ReconstructionResult | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        """True when the attack raised instead of reconstructing."""
        return self.error is not None

    def __eq__(self, other) -> bool:
        # dataclass equality would compare the rmse/attribute_rmse
        # arrays with ``==`` (ambiguous truth value) and treat the nan
        # of a failed attack as unequal to itself; compare element-wise
        # and nan-aware instead, so round-tripped outcomes are equal.
        if not isinstance(other, AttackOutcome):
            return NotImplemented
        return (
            self.name == other.name
            and self.error == other.error
            and values_equal(self.rmse, other.rmse)
            and values_equal(self.attribute_rmse, other.attribute_rmse)
            and self.result == other.result
        )

    def to_dict(self, *, include_estimate: bool = True) -> dict:
        """JSON-safe encoding (nan-aware), invertible by :meth:`from_dict`.

        ``include_estimate=False`` drops the full ``(n, m)``
        reconstruction matrix, keeping only the scores — the compact
        form sweeps persist.
        """
        result = None
        if self.result is not None:
            result = {
                "method": self.result.method,
                "details": sanitize_for_json(self.result.details),
                "estimate": (
                    sanitize_for_json(self.result.estimate)
                    if include_estimate
                    else None
                ),
            }
        return {
            "name": self.name,
            "rmse": sanitize_for_json(float(self.rmse)),
            "attribute_rmse": sanitize_for_json(self.attribute_rmse),
            "error": self.error,
            "result": result,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackOutcome":
        """Rebuild an outcome from :meth:`to_dict` output.

        Outcomes saved with ``include_estimate=False`` come back with
        ``result=None`` (the scores survive; the matrix was dropped).
        """
        encoded = payload.get("result")
        result = None
        if encoded is not None and encoded.get("estimate") is not None:
            result = ReconstructionResult(
                estimate=np.asarray(
                    restore_from_json(encoded["estimate"]), dtype=np.float64
                ),
                method=encoded["method"],
                details=restore_from_json(encoded.get("details", {})),
            )
        return cls(
            name=payload["name"],
            rmse=float(restore_from_json(payload["rmse"])),
            attribute_rmse=np.asarray(
                restore_from_json(payload["attribute_rmse"]),
                dtype=np.float64,
            ),
            result=result,
            error=payload.get("error"),
        )


@dataclass(frozen=True, eq=False)
class PipelineReport:
    """All attack outcomes for one generated-and-disguised dataset.

    ``dataset`` holds the full disguised/original/noise matrices for a
    live report; a report deserialized with ``include_dataset=False``
    carries ``dataset=None`` (scores only).
    """

    outcomes: dict[str, AttackOutcome]
    dataset: DisguisedDataset | None
    metadata: dict = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PipelineReport):
            return NotImplemented
        return (
            self.outcomes == other.outcomes
            and self.dataset == other.dataset
            and values_equal(self.metadata, other.metadata)
        )

    def rmse(self, name: str) -> float:
        """RMSE of a named attack."""
        try:
            return self.outcomes[name].rmse
        except KeyError:
            raise KeyError(
                f"no attack named {name!r}; available: "
                f"{sorted(self.outcomes)}"
            ) from None

    @property
    def ranking(self) -> list[str]:
        """Successful attack names sorted from most to least accurate."""
        return sorted(
            (
                name
                for name, outcome in self.outcomes.items()
                if not outcome.failed
            ),
            key=lambda name: self.outcomes[name].rmse,
        )

    @property
    def failures(self) -> dict[str, str]:
        """Failed attack names mapped to their recorded error strings."""
        return {
            name: outcome.error
            for name, outcome in self.outcomes.items()
            if outcome.failed
        }

    def to_dict(
        self,
        *,
        include_dataset: bool = True,
        include_estimates: bool = True,
    ) -> dict:
        """Strict-JSON encoding of the whole report (nan-safe).

        The payload survives ``json.dumps(..., allow_nan=False)`` — the
        same encoding the engine's result cache enforces — and
        :meth:`from_dict` inverts it bit-for-bit.  Set the two flags to
        ``False`` for the compact scores-only form (no ``(n, m)``
        matrices), e.g. when persisting large sweeps.  A report on a
        table-less dataset (see
        :meth:`~repro.randomization.base.DisguisedDataset.from_moments`)
        has no matrices to include and raises
        :class:`~repro.exceptions.ValidationError` unless
        ``include_dataset`` is ``False``.
        """
        dataset = None
        if include_dataset and self.dataset is not None:
            if not self.dataset.has_tables:
                raise ValidationError(
                    "the report's dataset was built from moments and holds "
                    "no tables; pass include_dataset=False"
                )
            model = self.dataset.noise_model
            dataset = {
                "disguised": sanitize_for_json(self.dataset.disguised),
                "original": sanitize_for_json(self.dataset.original),
                "noise": sanitize_for_json(self.dataset.noise),
                "noise_model": {
                    "covariance": sanitize_for_json(model.covariance),
                    "mean": sanitize_for_json(model.mean),
                    "family": model.family,
                },
            }
        return {
            "outcomes": {
                name: outcome.to_dict(include_estimate=include_estimates)
                for name, outcome in self.outcomes.items()
            },
            "dataset": dataset,
            "metadata": sanitize_for_json(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineReport":
        """Rebuild a report from :meth:`to_dict` output."""
        encoded = payload.get("dataset")
        dataset = None
        if encoded is not None:
            model = encoded["noise_model"]
            dataset = DisguisedDataset(
                disguised=np.asarray(
                    restore_from_json(encoded["disguised"]), dtype=np.float64
                ),
                noise_model=NoiseModel(
                    covariance=np.asarray(
                        restore_from_json(model["covariance"]),
                        dtype=np.float64,
                    ),
                    mean=np.asarray(
                        restore_from_json(model["mean"]), dtype=np.float64
                    ),
                    family=model["family"],
                ),
                original=np.asarray(
                    restore_from_json(encoded["original"]), dtype=np.float64
                ),
                noise=np.asarray(
                    restore_from_json(encoded["noise"]), dtype=np.float64
                ),
            )
        return cls(
            outcomes={
                name: AttackOutcome.from_dict(outcome)
                for name, outcome in payload["outcomes"].items()
            },
            dataset=dataset,
            metadata=restore_from_json(payload.get("metadata", {})),
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={outcome.rmse:.3f}"
            for name, outcome in sorted(self.outcomes.items())
        )
        return f"PipelineReport({parts})"


def evaluate_attacks(
    dataset: DisguisedDataset,
    attacks: dict[str, Reconstructor],
    *,
    fail_fast: bool = True,
) -> dict[str, AttackOutcome]:
    """Run every attack on a disguised dataset and score it.

    Attacks see only the public view; scoring uses the private original,
    passing the dataset so that affine results are scored in closed form
    from its once-computed Gram quantities (see
    :mod:`repro.metrics.error`).

    With ``fail_fast=False``, an attack that raises does not abort the
    evaluation: its exception is recorded on the outcome (``error`` set,
    ``rmse`` nan) and the remaining attacks still run, so one fragile
    method cannot kill a whole sweep.
    """
    if not attacks:
        raise ConfigurationError("'attacks' must contain at least one attack")
    outcomes: dict[str, AttackOutcome] = {}
    for name, reconstructor in attacks.items():
        try:
            with trace.span(
                "pipeline.attack", attack=name, method=type(reconstructor).__name__
            ):
                result = reconstructor.reconstruct(dataset)
        except Exception as exc:
            if fail_fast:
                raise
            trace.count("pipeline.attack_failures")
            outcomes[name] = AttackOutcome(
                name=name,
                rmse=float("nan"),
                attribute_rmse=np.full(dataset.n_attributes, np.nan),
                result=None,
                error=f"{type(exc).__name__}: {exc}",
            )
            continue
        with trace.span("pipeline.metrics", attack=name):
            outcomes[name] = AttackOutcome(
                name=name,
                rmse=root_mean_square_error(dataset, result),
                attribute_rmse=per_attribute_rmse(dataset, result),
                result=result,
            )
    return outcomes


class AttackPipeline:
    """Reusable generate-disguise-attack-score loop.

    Parameters
    ----------
    scheme:
        The randomization scheme under evaluation.
    attacks:
        Name-to-reconstructor battery (e.g. from
        :meth:`~repro.core.threat_model.ThreatModel.build_attacks`).
    """

    def __init__(
        self,
        scheme: RandomizationScheme,
        attacks: dict[str, Reconstructor],
    ):
        if not isinstance(scheme, RandomizationScheme):
            raise ConfigurationError(
                "scheme must be a RandomizationScheme, got "
                f"{type(scheme).__name__}"
            )
        if not attacks:
            raise ConfigurationError("'attacks' must be non-empty")
        for name, attack in attacks.items():
            if not isinstance(attack, Reconstructor):
                raise ConfigurationError(
                    f"attack {name!r} is not a Reconstructor"
                )
        self._scheme = scheme
        self._attacks = dict(attacks)

    @property
    def scheme(self) -> RandomizationScheme:
        """The randomization scheme under evaluation."""
        return self._scheme

    @property
    def attack_names(self) -> list[str]:
        """Names of the configured attacks."""
        return list(self._attacks)

    def run(
        self, original, rng=None, metadata=None, *, fail_fast: bool = True
    ) -> PipelineReport:
        """Disguise an original table and evaluate every attack on it.

        Parameters
        ----------
        original:
            The private table — a raw ``(n, m)`` matrix, a
            :class:`~repro.data.synthetic.SyntheticDataset`, or an
            already-disguised :class:`DisguisedDataset` (e.g. replayed
            from a previous run), in which case no new noise is drawn
            and the dataset's noise model must match this pipeline's
            scheme.
        rng:
            Seed or generator for the noise draw; ignored for a
            pre-disguised input.
        metadata:
            Optional sweep-point annotations copied into the report.
        fail_fast:
            Passed to :func:`evaluate_attacks`; ``False`` records
            per-attack exceptions in the report instead of raising.
        """
        with trace.span(
            "pipeline.run",
            scheme=type(self._scheme).__name__,
            attacks=len(self._attacks),
        ) as run_span:
            if isinstance(original, DisguisedDataset):
                disguised = self._validate_disguised(original)
            else:
                if isinstance(original, SyntheticDataset):
                    table = original.values
                else:
                    table = original
                generator = as_generator(rng)
                with trace.span("pipeline.randomize"):
                    disguised = self._scheme.disguise(table, generator)
            run_span.set(
                n_records=int(disguised.n_records),
                n_attributes=int(disguised.n_attributes),
            )
            trace.count("pipeline.records", int(disguised.n_records))
            outcomes = evaluate_attacks(
                disguised, self._attacks, fail_fast=fail_fast
            )
            return PipelineReport(
                outcomes=outcomes,
                dataset=disguised,
                metadata=dict(metadata or {}),
            )

    def _validate_disguised(self, dataset: DisguisedDataset) -> DisguisedDataset:
        """Check a pre-disguised input against the configured scheme."""
        announced = self._scheme.noise_model(dataset.n_attributes)
        model = dataset.noise_model
        if model.family != announced.family or not np.allclose(
            model.covariance, announced.covariance
        ):
            raise ConfigurationError(
                "pre-disguised dataset's noise model does not match this "
                f"pipeline's scheme {self._scheme!r}; evaluating attacks "
                "under a mismatched public noise description would be "
                "meaningless"
            )
        return dataset

    def __repr__(self) -> str:
        return (
            f"AttackPipeline(scheme={self._scheme!r}, "
            f"attacks={self.attack_names})"
        )
