"""Serializable experiment descriptions that compile into engine jobs.

An :class:`ExperimentSpec` is the declarative form of one experiment:
*which* components (randomization scheme, attack battery or threat
model, dataset generator — all referenced by their JSON-safe registry
specs), *what* sweep (a grid over arbitrary dotted parameters, or an
explicit list of per-point overrides), and *how* to execute (trials per
point, root seed).  It validates eagerly — a typo fails at construction,
not inside job 7000 of a sweep — and :meth:`compile_jobs` lowers it into
the engine's :class:`~repro.engine.jobs.JobSpec` list, inheriting the
engine's determinism contract: the same spec always produces the same
job keys, so caching and parallel execution behave identically to the
hand-written runners.

Two modes share the class:

* **Component mode** (``task=None``): ``scheme``, ``dataset``, and
  ``attacks``/``threat_model`` are registry spec dicts; jobs run the
  generic :func:`repro.api.tasks.attack_point` worker.  This is the
  user-facing path — any scheme x attack x dataset combination is a
  JSON file.
* **Raw-task mode** (``task="pkg.mod:fn"``): points are parameter dicts
  for a custom engine task.  The built-in figure and ablation specs use
  this to reproduce the paper bit-identically.
"""

from __future__ import annotations

import copy
import itertools
import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from repro.engine.jobs import JobSpec, _canonical_json
from repro.exceptions import ConfigurationError, ValidationError
from repro.registry import ATTACKS, DATASETS, SCHEMES
from repro.utils.serialization import values_equal
from repro.utils.validation import check_positive_int

__all__ = ["GENERIC_TASK", "ExperimentSpec"]

#: Engine task executed by component-mode specs.
GENERIC_TASK = "repro.api.tasks:attack_point"

_SEED_MODES = ("grid", "root")


def _apply_override(params: dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted-path override like ``"scheme.std"`` inside params."""
    parts = path.split(".")
    target = params
    for part in parts[:-1]:
        if not isinstance(target.get(part), dict):
            raise ValidationError(
                f"sweep path {path!r} does not resolve: {part!r} is not a "
                "dict in the base parameters"
            )
        target = target[part]
    target[parts[-1]] = value


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One experiment as data: components + sweep + execution knobs.

    Attributes
    ----------
    name:
        Experiment identifier (becomes the result series' name).
    task:
        ``"package.module:function"`` engine task, or ``None`` for the
        generic component-driven pipeline task.
    scheme / attacks / threat_model / dataset:
        Component-mode registry spec dicts.  ``attacks`` maps curve
        labels to attack specs; ``threat_model`` is the alternative
        declarative adversary (its battery defines the labels).
    params:
        Fixed task parameters shared by every sweep point (component
        mode requires ``n_records`` here or in the sweep).
    grid:
        Sweep grid: dotted parameter path to list of values, expanded as
        a cross product in insertion order (e.g. ``{"scheme.std": [1,
        2], "n_records": [500, 2000]}`` makes four points).
    points:
        Explicit per-point override dicts — the pre-expanded alternative
        to ``grid`` (used by the built-in paper specs, whose per-point
        spectra are derived, not gridded).
    trials:
        Independent repetitions averaged per point.
    seed:
        Engine seed root; job ``(point, trial)`` streams derive from it.
        ``None`` only in raw-task mode, for tasks that seed themselves
        from explicit params.
    seed_mode:
        ``"grid"`` derives per-job streams from ``(point, trial)``;
        ``"root"`` hands the root stream to a single job (the historical
        theorem-5.2 derivation).
    x_param / x_from / x_values / x_label:
        Where the x-axis comes from: a swept parameter path, a payload
        key averaged per point (e.g. measured dissimilarity), or an
        explicit list.  At most one of the three sources.
    metadata:
        Carried verbatim onto the result series.
    """

    name: str
    task: str | None = None
    scheme: dict[str, Any] | None = None
    attacks: dict[str, Any] | None = None
    threat_model: dict[str, Any] | None = None
    dataset: dict[str, Any] | None = None
    params: dict[str, Any] = field(default_factory=dict)
    grid: dict[str, Any] = field(default_factory=dict)
    points: tuple[dict[str, Any], ...] = ()
    trials: int = 1
    seed: int | None = None
    seed_mode: str = "grid"
    x_param: str | None = None
    x_from: str | None = None
    x_values: tuple[float, ...] | None = None
    x_label: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("spec 'name' must be a non-empty string")
        check_positive_int(self.trials, "trials")
        if self.seed is not None:
            check_positive_int(self.seed, "seed", minimum=0)
        if self.seed_mode not in _SEED_MODES:
            raise ValidationError(
                f"seed_mode must be one of {_SEED_MODES}, got "
                f"{self.seed_mode!r}"
            )
        if not isinstance(self.params, dict):
            raise ValidationError("'params' must be a dict")
        if not isinstance(self.grid, dict):
            raise ValidationError("'grid' must be a dict")
        for path, values in self.grid.items():
            if not isinstance(path, str) or not path:
                raise ValidationError(
                    f"grid keys must be parameter paths, got {path!r}"
                )
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ValidationError(
                    f"grid values for {path!r} must be a non-empty list"
                )
        object.__setattr__(self, "grid", {k: list(v) for k, v in self.grid.items()})
        points = tuple(self.points)
        if self.grid and points:
            raise ValidationError(
                "give either 'grid' or explicit 'points', not both"
            )
        for point in points:
            if not isinstance(point, dict):
                raise ValidationError(
                    f"each point must be a dict of overrides, got "
                    f"{type(point).__name__}"
                )
        object.__setattr__(self, "points", points)
        if self.x_values is not None:
            object.__setattr__(
                self,
                "x_values",
                tuple(float(x) for x in np.asarray(self.x_values).ravel()),
            )
        x_sources = [
            source
            for source in (self.x_param, self.x_from, self.x_values)
            if source is not None
        ]
        if len(x_sources) > 1:
            raise ValidationError(
                "give at most one of 'x_param', 'x_from', 'x_values'"
            )
        self._validate_mode()
        expanded = self.expand_points()
        if self.task is None:
            # Eager component validation: instantiate the first point's
            # components now so bad specs fail at construction.
            self.point_params(expanded[0])
        if self.x_param is not None and any(
            self.x_param not in point for point in expanded
        ):
            raise ValidationError(
                f"x_param {self.x_param!r} is not set by every sweep point"
            )
        n_points = len(expanded)
        if self.seed_mode == "root" and (self.trials != 1 or n_points != 1):
            raise ValidationError(
                "seed_mode='root' feeds the root stream to one job; it "
                "requires a single point and trials=1"
            )
        if self.task is not None and self.seed is None and self.trials > 1:
            # A raw-task spec without a seed gives every trial the same
            # derived stream, so "averaging trials" would average
            # identical numbers — reject instead of silently lying.
            raise ValidationError(
                "a raw-task spec with trials > 1 requires an explicit "
                "'seed'; without one all trials would be identical"
            )
        if self.x_values is not None and len(self.x_values) not in (
            n_points,
            0,
        ):
            # A single list-payload job may expand to many x positions,
            # so only a per-point x list is length-checked here.
            if not (n_points == 1 and self.trials == 1):
                raise ValidationError(
                    f"'x_values' has {len(self.x_values)} entries for "
                    f"{n_points} sweep points"
                )
        # Any spec must be JSON round-trippable — that is the contract.
        _canonical_json(self.to_dict())

    def _validate_mode(self) -> None:
        if self.task is None:
            missing = [
                label
                for label, value in (
                    ("scheme", self.scheme),
                    ("dataset", self.dataset),
                )
                if value is None
            ]
            if missing:
                raise ValidationError(
                    f"component-mode spec requires {missing}; give them or "
                    "set an explicit 'task'"
                )
            if (self.attacks is None) == (self.threat_model is None):
                raise ValidationError(
                    "component-mode spec requires exactly one of 'attacks' "
                    "and 'threat_model'"
                )
            if self.attacks is not None and (
                not isinstance(self.attacks, dict) or not self.attacks
            ):
                raise ValidationError(
                    "'attacks' must map curve labels to attack specs"
                )
            if self.seed is None:
                raise ValidationError(
                    "component-mode specs need a 'seed' (the generic task "
                    "derives data and noise draws from it)"
                )
        else:
            if not isinstance(self.task, str) or self.task.count(":") != 1:
                raise ValidationError(
                    "task must be a 'package.module:function' string, got "
                    f"{self.task!r}"
                )
            present = [
                label
                for label, value in (
                    ("scheme", self.scheme),
                    ("attacks", self.attacks),
                    ("threat_model", self.threat_model),
                    ("dataset", self.dataset),
                )
                if value is not None
            ]
            if present:
                raise ValidationError(
                    f"raw-task specs take parameters via 'params'/'points'; "
                    f"component field(s) {present} are not allowed"
                )

    # ------------------------------------------------------------------
    # sweep expansion and engine compilation

    @property
    def task_ref(self) -> str:
        """The engine task this spec executes."""
        return self.task if self.task is not None else GENERIC_TASK

    def expand_points(self) -> list[dict[str, Any]]:
        """Per-point override dicts, grid expanded in insertion order."""
        if self.points:
            return [copy.deepcopy(dict(point)) for point in self.points]
        if self.grid:
            paths = list(self.grid)
            return [
                dict(zip(paths, combo))
                for combo in itertools.product(
                    *(self.grid[path] for path in paths)
                )
            ]
        return [{}]

    def point_params(
        self, overrides: dict[str, Any], *, validate: bool = True
    ) -> dict[str, Any]:
        """Fully-merged (and, by default, validated) params for one point."""
        if self.task is None:
            params: dict[str, Any] = {
                "dataset": copy.deepcopy(self.dataset),
                "scheme": copy.deepcopy(self.scheme),
            }
            if self.attacks is not None:
                params["attacks"] = copy.deepcopy(self.attacks)
            else:
                params["threat_model"] = copy.deepcopy(self.threat_model)
            params.update(copy.deepcopy(self.params))
        else:
            params = copy.deepcopy(self.params)
        for path, value in overrides.items():
            _apply_override(params, path, value)
        if self.task is None:
            self._check_n_records(params)
            if validate:
                self._validate_generic_params(params)
        return params

    def _check_n_records(self, params: dict[str, Any]) -> None:
        n_records = params.get("n_records")
        if not isinstance(n_records, int) or n_records < 2:
            raise ValidationError(
                "component-mode specs need an integer n_records >= 2 in "
                "'params' (or swept via the grid)"
            )

    def _validate_generic_params(self, params: dict[str, Any]) -> None:
        """Instantiate every component eagerly (parent-side)."""
        DATASETS.validate(params["dataset"])
        SCHEMES.validate(params["scheme"])
        if "attacks" in params:
            for label, attack_spec in params["attacks"].items():
                try:
                    ATTACKS.validate(attack_spec)
                except ValidationError as exc:
                    raise ValidationError(
                        f"attack {label!r}: {exc}"
                    ) from exc
        else:
            from repro.core.threat_model import ThreatModel

            ThreatModel.from_spec(params["threat_model"])

    def _overrides_touch_components(self, overrides: dict[str, Any]) -> bool:
        roots = ("dataset", "scheme", "attacks", "threat_model")
        return any(
            path.split(".", 1)[0] in roots for path in overrides
        )

    def compile_jobs(self) -> list[JobSpec]:
        """Lower the spec into engine jobs, point-major then trial.

        Component instantiation is re-validated only for points whose
        overrides touch a component spec; the base components were
        already validated at construction, so a plain parameter sweep
        (e.g. over ``n_records``) does not rebuild N copies of the
        attack battery parent-side.
        """
        jobs: list[JobSpec] = []
        for index, overrides in enumerate(self.expand_points()):
            params = self.point_params(
                overrides,
                validate=self._overrides_touch_components(overrides),
            )
            for trial in range(self.trials):
                if self.seed is None or self.seed_mode == "root":
                    path: tuple[int, ...] = ()
                else:
                    path = (index, trial)
                jobs.append(
                    JobSpec(
                        task=self.task_ref,
                        params=params,
                        seed_root=self.seed,
                        seed_path=path,
                    )
                )
        return jobs

    def x_values_hint(self, points: list[dict[str, Any]]) -> np.ndarray | None:
        """X-axis values derivable without payloads (``None`` for x_from)."""
        if self.x_values is not None:
            return np.asarray(self.x_values, dtype=np.float64)
        if self.x_param is not None:
            try:
                values = [point[self.x_param] for point in points]
            except KeyError:
                raise ConfigurationError(
                    f"x_param {self.x_param!r} is not set by every sweep "
                    "point"
                ) from None
            return np.asarray(values, dtype=np.float64)
        if self.x_from is not None:
            return None
        return np.arange(len(points), dtype=np.float64)

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-safe dict; :meth:`from_dict` inverts it."""
        return {
            "name": self.name,
            "task": self.task,
            "scheme": copy.deepcopy(self.scheme),
            "attacks": copy.deepcopy(self.attacks),
            "threat_model": copy.deepcopy(self.threat_model),
            "dataset": copy.deepcopy(self.dataset),
            "params": copy.deepcopy(self.params),
            "grid": copy.deepcopy(self.grid),
            "points": [copy.deepcopy(point) for point in self.points],
            "trials": self.trials,
            "seed": self.seed,
            "seed_mode": self.seed_mode,
            "x_param": self.x_param,
            "x_from": self.x_from,
            "x_values": None if self.x_values is None else list(self.x_values),
            "x_label": self.x_label,
            "metadata": copy.deepcopy(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ExperimentSpec":
        """Build (and eagerly validate) a spec from a plain dict."""
        if not isinstance(payload, dict):
            raise ValidationError(
                f"spec payload must be a dict, got {type(payload).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"unknown spec field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        if "name" not in payload:
            raise ValidationError("spec payload is missing 'name'")
        kwargs = dict(payload)
        if kwargs.get("points") is not None:
            kwargs["points"] = tuple(kwargs["points"])
        else:
            kwargs.pop("points", None)
        # None for an optional field means "use the default".
        for key in list(kwargs):
            if kwargs[key] is None and key not in (
                "task",
                "scheme",
                "attacks",
                "threat_model",
                "dataset",
                "seed",
                "x_param",
                "x_from",
                "x_values",
                "x_label",
            ):
                del kwargs[key]
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON document into a validated spec."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str | pathlib.PurePath) -> "ExperimentSpec":
        """Load and validate a ``*.json`` spec file."""
        return cls.from_json(pathlib.Path(path).read_text())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentSpec):
            return NotImplemented
        return values_equal(self.to_dict(), other.to_dict())

    def __repr__(self) -> str:
        mode = "task=" + self.task_ref if self.task else "components"
        return (
            f"ExperimentSpec(name={self.name!r}, {mode}, "
            f"points={len(self.expand_points())}, trials={self.trials})"
        )
