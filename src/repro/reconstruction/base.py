"""Reconstructor interface shared by all attacks.

Every attack consumes only the *public* view of a
:class:`~repro.randomization.base.DisguisedDataset` — the disguised
matrix and the announced noise model — and returns a
:class:`ReconstructionResult`.  Keeping the interface uniform lets the
experiment harness sweep attacks interchangeably, and makes it a type
error for an attack to peek at the private original data.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import DisguisedDataset, NoiseModel
from repro.utils.serialization import values_equal
from repro.utils.validation import check_finite, check_matrix

__all__ = ["AffineMap", "ReconstructionResult", "Reconstructor"]


@dataclass(frozen=True, eq=False)
class AffineMap:
    """A reconstruction affine in the published table ``Y``.

    ``X_hat = (Y - center) W + offset``, where ``W`` is ``(m, m)`` or a
    diagonal given as its ``(m,)`` entries and a missing ``center`` is
    zero.  A ``(k, m)`` ``center`` is subtracted row by row.  ``Y`` is
    identified by the attack's
    :class:`~repro.linalg.statistics.DisguisedStatistics`, which the
    closed-form scorer matches against the dataset's.
    :meth:`apply` evaluates the attack's own expression in the attack's
    own order, so a lazily built estimate has the bits an eager one had.
    The ``m``-sized arrays are checked for NaN and infinity here.
    """

    statistics: DisguisedStatistics
    weights: np.ndarray
    offset: np.ndarray
    center: np.ndarray | None = None

    def __post_init__(self):
        m = self.statistics.n_attributes
        allowed = {
            "weights": [(m,), (m, m)],
            "offset": [(m,)],
            "center": [(m,), np.shape(self.center)[:1] + (m,)],
        }
        for name, shapes in allowed.items():
            value = getattr(self, name)
            if value is None and name == "center":
                continue
            if np.shape(value) not in shapes:
                raise ValidationError(
                    f"affine {name} has shape {np.shape(value)}, data has "
                    f"{m} attributes"
                )
            check_finite(value, name)

    def apply(self) -> np.ndarray:
        """The ``(n, m)`` estimate.

        Raises :class:`~repro.exceptions.ValidationError` when the
        statistics hold no table (see
        :meth:`~repro.linalg.statistics.DisguisedStatistics.from_moments`).
        """
        estimate = self.statistics.table
        if self.center is not None:
            rows = np.atleast_2d(self.center)
            estimate = estimate - rows[0]
            for row in rows[1:]:
                estimate -= row
        if self.weights.ndim == 1:
            estimate = estimate * self.weights
        else:
            estimate = estimate @ self.weights
        estimate += self.offset
        return estimate

    def centred(self, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(W, b)`` with ``X_hat = (Y - mean) W + b``.

        ``W`` stays a vector for a diagonal map.
        """
        shift = mean
        if self.center is not None:
            shift = mean - np.atleast_2d(self.center).sum(axis=0)
        weights = self.weights
        offset = shift * weights if weights.ndim == 1 else shift @ weights
        return weights, offset + self.offset


class ReconstructionResult:
    """Output of a reconstruction attack.

    Attributes
    ----------
    estimate:
        The reconstructed table ``X_hat``, shape ``(n, m)``.  An affine
        result builds it from :attr:`affine` on first read and keeps it.
    method:
        Short name of the attack that produced it (e.g. ``"PCA-DR"``).
    details:
        Method-specific diagnostics, e.g. the number of principal
        components PCA-DR retained, or the covariance estimate BE-DR
        used.  Values are small scalars/arrays for reporting; nothing in
        here is needed to interpret ``estimate``.
    affine:
        The :class:`AffineMap` of an attack affine in ``Y`` (given
        instead of ``estimate``), or ``None``.  Scoring against the
        dataset reads it instead of the ``(n, m)`` estimate (see
        :mod:`repro.metrics.error`).
    """

    def __init__(
        self,
        estimate: np.ndarray | None = None,
        method: str = "",
        details: dict | None = None,
        *,
        affine: AffineMap | None = None,
    ):
        if (estimate is None) == (affine is None):
            raise ValidationError("give exactly one of 'estimate' and 'affine'")
        if estimate is not None:
            estimate = check_matrix(estimate, "estimate")
        elif not isinstance(affine, AffineMap):
            raise ValidationError(
                f"'affine' must be an AffineMap, got {type(affine).__name__}"
            )
        if not method:
            raise ValidationError("'method' must be a non-empty string")
        self.__dict__.update(
            _estimate=estimate,
            method=method,
            details={} if details is None else details,
            affine=affine,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"ReconstructionResult is immutable ({name!r})")

    @property
    def estimate(self) -> np.ndarray:
        """The ``(n, m)`` reconstruction, built once for an affine result."""
        estimate = self._estimate
        if estimate is None:
            estimate = self.affine.apply()
            self.__dict__["_estimate"] = estimate
        return estimate

    def __eq__(self, other) -> bool:
        # Compare element-wise (nan-aware, so round-tripped results with
        # nan diagnostics still compare equal); affine results compare
        # by their estimates.
        if not isinstance(other, ReconstructionResult):
            return NotImplemented
        return (
            self.method == other.method
            and values_equal(self.estimate, other.estimate)
            and values_equal(self.details, other.details)
        )

    @property
    def n_records(self) -> int:
        """Number of reconstructed rows."""
        if self.affine is not None:
            return self.affine.statistics.n_records
        return int(self._estimate.shape[0])

    @property
    def n_attributes(self) -> int:
        """Number of reconstructed columns."""
        if self.affine is not None:
            return self.affine.statistics.n_attributes
        return int(self._estimate.shape[1])

    def __repr__(self) -> str:
        return (
            f"ReconstructionResult(method={self.method!r}, "
            f"n={self.n_records}, m={self.n_attributes})"
        )


class Reconstructor(abc.ABC):
    """A data-reconstruction attack.

    Subclasses implement :meth:`_reconstruct` on the public view; the
    public :meth:`reconstruct` method accepts either a
    :class:`DisguisedDataset` (convenient in experiments) or an explicit
    ``(disguised, noise_model)`` pair (what a real adversary holds).
    Either way the attack gets the view as its
    :class:`~repro.linalg.statistics.DisguisedStatistics`: the dataset's
    own, shared by every attack run on it, or a fresh one for a raw
    matrix.  An attack that needs the table reads
    :attr:`~repro.linalg.statistics.DisguisedStatistics.table`, which
    raises on a table-less dataset.
    """

    #: Short display name, overridden by subclasses.
    name: str = "base"

    def to_spec(self) -> dict:
        """JSON-safe description; overridden by registered attacks."""
        raise ValidationError(
            f"{type(self).__name__} does not support spec serialization; "
            "register it with repro.registry.register_attack and "
            "implement to_spec()/from_spec()"
        )

    def reconstruct(
        self,
        disguised,
        noise_model: NoiseModel | None = None,
    ) -> ReconstructionResult:
        """Run the attack.

        Parameters
        ----------
        disguised:
            Either a :class:`DisguisedDataset` or the raw disguised
            matrix ``Y`` of shape ``(n, m)``.
        noise_model:
            Required when ``disguised`` is a raw matrix; forbidden (taken
            from the dataset) otherwise.

        Returns
        -------
        ReconstructionResult
        """
        if isinstance(disguised, DisguisedDataset):
            if noise_model is not None:
                raise ValidationError(
                    "pass either a DisguisedDataset or (matrix, noise_model),"
                    " not both"
                )
            model = disguised.noise_model
            statistics = disguised.statistics
        else:
            if noise_model is None:
                raise ValidationError(
                    "noise_model is required when passing a raw matrix"
                )
            matrix = check_matrix(disguised, "disguised")
            model = noise_model
            if matrix.shape[1] != model.dim:
                raise ValidationError(
                    f"data has {matrix.shape[1]} attributes but the noise "
                    f"model covers {model.dim}"
                )
            statistics = DisguisedStatistics(matrix, model)
        return self._reconstruct(model, statistics)

    @abc.abstractmethod
    def _reconstruct(
        self,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        """Attack implementation on the validated public view.

        ``statistics`` is the published table ``Y`` (its
        :attr:`~repro.linalg.statistics.DisguisedStatistics.table`) with
        the shared derived quantities of ``(Y, noise_model)``: ``n``,
        ``m``, ``Cov(Y)``, the Theorem 5.1 estimate.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
