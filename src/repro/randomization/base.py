"""Randomization-scheme interface and the disguised-data container.

A :class:`RandomizationScheme` turns an original table ``X`` into a
:class:`DisguisedDataset` holding the published ``Y = X + R`` together
with the *public* knowledge an adversary legitimately has: the noise
model.  The actual realized noise ``R`` is retained privately for
evaluation (computing reconstruction error requires the original data
anyway) but attack code must only consume the public fields.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.statistics import DisguisedStatistics, ReferenceGram
from repro.utils.serialization import values_equal
from repro.utils.validation import check_matrix

__all__ = ["NoiseModel", "DisguisedDataset", "RandomizationScheme"]


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Public description of the perturbing noise.

    In the randomization literature the noise distribution is public
    (Section 4.2: "R's distribution f_R is public"); this object is what
    the data publisher announces.

    Attributes
    ----------
    covariance:
        Noise covariance matrix, shape ``(m, m)``.  ``sigma^2 * I`` for
        the baseline i.i.d. scheme; a full matrix for Section 8's
        correlated scheme.
    mean:
        Noise mean vector (zero in all the paper's schemes).
    family:
        Distribution family label, e.g. ``"gaussian"`` or ``"uniform"``.
    """

    covariance: np.ndarray
    mean: np.ndarray
    family: str = "gaussian"

    def __post_init__(self):
        cov = check_matrix(self.covariance, "covariance")
        if cov.shape[0] != cov.shape[1]:
            raise ValidationError("noise covariance must be square")
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        if mean.size != cov.shape[0]:
            raise ValidationError(
                f"noise mean has length {mean.size}, expected {cov.shape[0]}"
            )
        cov = (cov + cov.T) / 2.0
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "mean", mean)
        # Frozen, so is_isotropic is evaluated once, here.
        diagonal = np.diag(cov)
        scale = max(float(diagonal.max()), 1e-300)
        isotropic = np.allclose(
            diagonal, diagonal[0], rtol=1e-9, atol=1e-12 * scale
        ) and np.allclose(cov - np.diag(diagonal), 0.0, atol=1e-9 * scale)
        object.__setattr__(self, "_is_isotropic", bool(isotropic))

    def __eq__(self, other) -> bool:
        # dataclass-generated equality compares ndarray fields with
        # ``==`` and dies on the ambiguous-truth ValueError; compare the
        # arrays element-wise instead.
        if not isinstance(other, NoiseModel):
            return NotImplemented
        return (
            self.family == other.family
            and values_equal(self.mean, other.mean)
            and values_equal(self.covariance, other.covariance)
        )

    @property
    def dim(self) -> int:
        """Number of attributes the noise covers."""
        return int(self.mean.size)

    @property
    def is_isotropic(self) -> bool:
        """True when the covariance is ``sigma^2 * I`` (i.i.d. noise)."""
        return self._is_isotropic

    @property
    def scalar_variance(self) -> float:
        """The shared per-attribute variance ``sigma^2``.

        Only meaningful for isotropic noise; raises otherwise so callers
        cannot silently treat correlated noise as i.i.d.
        """
        if not self.is_isotropic:
            raise ValidationError(
                "noise is not isotropic; use the full covariance"
            )
        return float(self.covariance[0, 0])


@dataclass(frozen=True, eq=False)
class DisguisedDataset:
    """The published, randomized table plus the adversary's knowledge.

    Attributes
    ----------
    disguised:
        ``Y = X + R``, shape ``(n, m)`` — what the adversary sees.
    noise_model:
        Public noise description.
    original:
        The private table ``X`` (held for evaluation only).
    noise:
        The realized perturbation ``R`` (evaluation only).

    The attacks' shared inputs (``Cov(Y)``, the Theorem 5.1 estimate,
    ...) live in :attr:`statistics`, and the scoring side's Gram
    quantities of ``original`` in :attr:`reference_gram`; both are
    filled on first use and are not part of equality or of the pickled
    state.

    :meth:`from_moments` builds the table-less form: the three tables
    are ``None`` and the dataset is its statistics and Gram quantities,
    which then are its state.
    """

    disguised: np.ndarray | None
    noise_model: NoiseModel
    original: np.ndarray | None
    noise: np.ndarray | None

    def __post_init__(self):
        disguised = check_matrix(self.disguised, "disguised")
        original = check_matrix(self.original, "original")
        noise = check_matrix(self.noise, "noise")
        if not (disguised.shape == original.shape == noise.shape):
            raise ValidationError(
                "disguised, original, and noise must share one shape; got "
                f"{disguised.shape}, {original.shape}, {noise.shape}"
            )
        if disguised.shape[1] != self.noise_model.dim:
            raise ValidationError(
                f"data has {disguised.shape[1]} attributes but the noise "
                f"model covers {self.noise_model.dim}"
            )
        object.__setattr__(self, "disguised", disguised)
        object.__setattr__(self, "original", original)
        object.__setattr__(self, "noise", noise)

    @classmethod
    def from_moments(
        cls,
        n_records: int,
        mean: np.ndarray,
        scatter: np.ndarray,
        noise_model: NoiseModel,
    ) -> "DisguisedDataset":
        """Table-less dataset from the joint sample moments of ``(X, R)``.

        ``mean`` is ``(x_bar, r_bar)``, shape ``(2m,)``, and ``scatter``
        is ``[Xc Rc]^T [Xc Rc]``, shape ``(2m, 2m)``.  With ``Yc = Xc +
        Rc`` they give ``y_bar = x_bar + r_bar``, ``Cov(Y) = Yc^T Yc /
        (n - 1)`` and the Gram quantities ``diag(Xc^T Xc)`` and ``Xc^T
        Yc``: all that the affine attacks and their closed-form scores
        read.  Reading a table raises
        :class:`~repro.exceptions.ValidationError`.
        """
        m = noise_model.dim
        mean = np.asarray(mean, dtype=np.float64)
        scatter = np.asarray(scatter, dtype=np.float64)
        if mean.shape != (2 * m,) or scatter.shape != (2 * m, 2 * m):
            raise ValidationError(
                f"joint moments have shapes {mean.shape} and {scatter.shape};"
                f" expected ({2 * m},) and ({2 * m}, {2 * m})"
            )
        scatter_xx, scatter_xr = scatter[:m, :m], scatter[:m, m:]
        cross = scatter_xx + scatter_xr
        scatter_yy = cross + scatter_xr.T + scatter[m:, m:]
        covariance = (scatter_yy + scatter_yy.T) / (2.0 * (n_records - 1))
        dataset = cls.__new__(cls)
        for name in ("disguised", "original", "noise"):
            object.__setattr__(dataset, name, None)
        object.__setattr__(dataset, "noise_model", noise_model)
        object.__setattr__(
            dataset,
            "_statistics",
            DisguisedStatistics.from_moments(
                n_records, mean[:m] + mean[m:], covariance, noise_model
            ),
        )
        object.__setattr__(
            dataset,
            "_reference_gram",
            ReferenceGram(mean[:m].copy(), np.diag(scatter_xx).copy(), cross),
        )
        return dataset

    @property
    def has_tables(self) -> bool:
        """False for the table-less form built by :meth:`from_moments`."""
        return self.disguised is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, DisguisedDataset):
            return NotImplemented
        return self.noise_model == other.noise_model and values_equal(
            self._state(), other._state()
        )

    def _state(self) -> tuple:
        if self.has_tables:
            return (self.disguised, self.original, self.noise)
        statistics, gram = self.statistics, self.reference_gram
        return (
            statistics.n_records,
            statistics.column_means,
            statistics.covariance,
            gram.mean,
            gram.sq_norms,
            gram.cross,
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if self.has_tables:
            state.pop("_statistics", None)
            state.pop("_reference_gram", None)
        return state

    @property
    def statistics(self) -> DisguisedStatistics:
        """Statistics of the public view, shared by every attack on it."""
        statistics = self.__dict__.get("_statistics")
        if statistics is None:
            statistics = DisguisedStatistics(self.disguised, self.noise_model)
            object.__setattr__(self, "_statistics", statistics)
        return statistics

    @property
    def reference_gram(self) -> ReferenceGram:
        """Gram quantities of :attr:`original` against :attr:`disguised`.

        Private (derived from ``X``): only scoring reads them, once per
        dataset for every affine attack scored against it.
        """
        gram = self.__dict__.get("_reference_gram")
        if gram is None:
            gram = ReferenceGram.of(self.original, self.disguised)
            object.__setattr__(self, "_reference_gram", gram)
        return gram

    @property
    def n_records(self) -> int:
        """Number of rows ``n``."""
        return self.statistics.n_records

    @property
    def n_attributes(self) -> int:
        """Number of columns ``m``."""
        return self.statistics.n_attributes

    def __repr__(self) -> str:
        return (
            f"DisguisedDataset(n={self.n_records}, m={self.n_attributes}, "
            f"noise={self.noise_model.family!r})"
        )


class RandomizationScheme(abc.ABC):
    """A data-disguising mechanism producing ``Y = X + R``.

    Subclasses registered with :func:`repro.registry.register_scheme`
    additionally implement ``to_spec()`` / ``from_spec(spec)`` so the
    scheme is constructible from a plain JSON-safe dict; unregistered
    schemes simply cannot appear in serialized experiment specs.
    """

    def to_spec(self) -> dict:
        """JSON-safe description; overridden by registered schemes."""
        raise ValidationError(
            f"{type(self).__name__} does not support spec serialization; "
            "register it with repro.registry.register_scheme and "
            "implement to_spec()/from_spec()"
        )

    @abc.abstractmethod
    def noise_model(self, n_attributes: int) -> NoiseModel:
        """The public noise description for an ``m``-attribute table."""

    @abc.abstractmethod
    def sample_noise(self, shape: tuple[int, int], rng=None) -> np.ndarray:
        """Draw a noise matrix of the given ``(n, m)`` shape."""

    def disguise(self, original, rng=None) -> DisguisedDataset:
        """Perturb an original table and package the published view."""
        matrix = check_matrix(original, "original")
        noise = self.sample_noise(matrix.shape, rng)
        model = self.noise_model(matrix.shape[1])
        return DisguisedDataset(
            disguised=matrix + noise,
            noise_model=model,
            original=matrix,
            noise=noise,
        )
