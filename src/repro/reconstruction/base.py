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
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import DisguisedDataset, NoiseModel
from repro.utils.serialization import values_equal
from repro.utils.validation import check_matrix

__all__ = ["ReconstructionResult", "Reconstructor"]


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Output of a reconstruction attack.

    Attributes
    ----------
    estimate:
        The reconstructed table ``X_hat``, shape ``(n, m)``.
    method:
        Short name of the attack that produced it (e.g. ``"PCA-DR"``).
    details:
        Method-specific diagnostics, e.g. the number of principal
        components PCA-DR retained, or the covariance estimate BE-DR
        used.  Values are small scalars/arrays for reporting; nothing in
        here is needed to interpret ``estimate``.
    """

    estimate: np.ndarray
    method: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        matrix = check_matrix(self.estimate, "estimate")
        object.__setattr__(self, "estimate", matrix)
        if not self.method:
            raise ValidationError("'method' must be a non-empty string")

    def __eq__(self, other) -> bool:
        # The generated dataclass __eq__ would compare ``estimate``
        # arrays with ``==`` and raise the ambiguous-truth ValueError;
        # compare element-wise (nan-aware, so round-tripped results with
        # nan diagnostics still compare equal).
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
        return int(self.estimate.shape[0])

    @property
    def n_attributes(self) -> int:
        """Number of reconstructed columns."""
        return int(self.estimate.shape[1])

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
    Either way the attack also gets the view's
    :class:`~repro.linalg.statistics.DisguisedStatistics`: the dataset's
    own, shared by every attack run on it, or a fresh one for a raw
    matrix.
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
            matrix = disguised.disguised
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
        return self._reconstruct(matrix, model, statistics)

    @abc.abstractmethod
    def _reconstruct(
        self,
        disguised: np.ndarray,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        """Attack implementation on the validated public view.

        ``statistics`` holds the shared derived quantities of
        ``(disguised, noise_model)``; attacks that need ``Cov(Y)``, the
        Theorem 5.1 estimate or ``Sigma_r^-1`` read them from it.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
