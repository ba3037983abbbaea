"""Synthetic dataset generation (Section 7.1 steps 4-5, minus the noise).

:func:`generate_dataset` draws an original data table ``X`` from a
:class:`~repro.data.covariance_builder.CovarianceModel`.  Noise addition
is the randomization scheme's job (:mod:`repro.randomization`), keeping
generation and disguise independent, as in the paper.

:func:`sample_moments` skips both tables: for Gaussian data and
Gaussian noise it draws the joint sample mean and scatter of ``(X, R)``
from their exact law, which is all that attacks affine in ``Y`` and
their closed-form scores read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.covariance_builder import CovarianceModel
from repro.exceptions import ValidationError
from repro.randomization.base import DisguisedDataset, NoiseModel
from repro.registry import check_spec, register_dataset
from repro.stats.mvn import MultivariateNormal
from repro.telemetry import trace
from repro.utils.rng import as_generator
from repro.utils.serialization import values_equal
from repro.utils.validation import check_positive_int, check_vector

__all__ = [
    "SyntheticDataset",
    "SpectrumDatasetGenerator",
    "generate_dataset",
    "sample_moments",
]


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """An original data table together with its generating model.

    Attributes
    ----------
    values:
        The original data ``X``, shape ``(n, m)`` — the private table the
        adversary tries to reconstruct.
    covariance_model:
        The population covariance the rows were drawn from.  Attacks must
        not read this directly (they estimate it via Theorem 5.1); it is
        exposed for oracle ablations and noise design.
    mean:
        Population mean vector used for generation.
    """

    values: np.ndarray
    covariance_model: CovarianceModel
    mean: np.ndarray

    def __eq__(self, other) -> bool:
        # Array-aware: the generated __eq__ would raise on the ndarrays.
        if not isinstance(other, SyntheticDataset):
            return NotImplemented
        return (
            values_equal(self.values, other.values)
            and self.covariance_model == other.covariance_model
            and values_equal(self.mean, other.mean)
        )

    @property
    def n_records(self) -> int:
        """Number of rows ``n``."""
        return int(self.values.shape[0])

    @property
    def n_attributes(self) -> int:
        """Number of columns ``m``."""
        return int(self.values.shape[1])

    @property
    def population_covariance(self) -> np.ndarray:
        """Covariance matrix the data were sampled from."""
        return self.covariance_model.matrix

    def __repr__(self) -> str:
        return (
            f"SyntheticDataset(n={self.n_records}, m={self.n_attributes})"
        )


def generate_dataset(
    covariance_model: CovarianceModel | None = None,
    *,
    n_records: int,
    spectrum=None,
    mean=None,
    rng=None,
) -> SyntheticDataset:
    """Draw an original data table from a covariance model.

    Either pass a prebuilt ``covariance_model`` or a raw ``spectrum``
    (eigenvalues), in which case a random orthonormal eigenbasis is drawn
    first — exactly the paper's generation pipeline.  The basis is the Q
    factor of a Householder QR of a Gaussian matrix with R's diagonal made
    positive, which is the matrix Gram-Schmidt yields from the same draw
    (see :func:`repro.linalg.gram_schmidt.random_orthogonal`).

    Under tracing the call is a ``data.generate`` span with ``data.basis``
    (eigenbasis draw, when a ``spectrum`` is given) and ``data.sample``
    (the multivariate-normal draw) children.

    Parameters
    ----------
    covariance_model:
        Covariance with known eigenstructure.  Mutually exclusive with
        ``spectrum``.
    n_records:
        Number of rows to draw.
    spectrum:
        Eigenvalues used to build a fresh :class:`CovarianceModel`.
    mean:
        Population mean vector; defaults to zero (the paper works with
        zero-mean data, Section 5.1.1).
    rng:
        Seed or generator.  A single generator drives both the eigenbasis
        draw and the sampling, so one seed reproduces the whole dataset.

    Returns
    -------
    SyntheticDataset
    """
    n = check_positive_int(n_records, "n_records")
    generator = as_generator(rng)
    if (covariance_model is None) == (spectrum is None):
        raise ValidationError(
            "exactly one of 'covariance_model' and 'spectrum' must be given"
        )
    with trace.span("data.generate", n=n) as span:
        if covariance_model is None:
            with trace.span("data.basis"):
                covariance_model = CovarianceModel.from_spectrum(
                    spectrum, generator
                )
        span.set(m=covariance_model.dim)
        if mean is None:
            mean_vector = np.zeros(covariance_model.dim)
        else:
            mean_vector = check_vector(mean, "mean")
            if mean_vector.size != covariance_model.dim:
                raise ValidationError(
                    f"mean has length {mean_vector.size}, expected "
                    f"{covariance_model.dim}"
                )
        distribution = MultivariateNormal(
            mean_vector, covariance_model.matrix
        )
        with trace.span("data.sample", n=n):
            values = distribution.sample(n, generator)
    return SyntheticDataset(
        values=values,
        covariance_model=covariance_model,
        mean=mean_vector,
    )


def sample_moments(
    n_records: int,
    data_root: np.ndarray,
    noise_root: np.ndarray,
    noise_model: NoiseModel,
    rng=None,
) -> DisguisedDataset:
    """Draw the sufficient statistics of a disguised Gaussian table.

    The rows of ``X`` are ``N(0, Sigma_x)`` and those of ``R`` an
    independent ``N(0, Sigma_r)``, with ``Sigma_x = Lx Lx^T`` and
    ``Sigma_r = Lr Lr^T`` for the given square roots ``Lx`` (``data_root``)
    and ``Lr`` (``noise_root``, any PSD root, e.g. ``sigma I``).  With
    ``L = diag(Lx, Lr)`` and ``Sigma = L L^T``, the joint sample mean of
    ``n`` records of ``(X, R)`` is ``N(0, Sigma / n)`` and their scatter
    ``[Xc Rc]^T [Xc Rc]`` is an independent Wishart ``W(Sigma, n - 1)``;
    both are drawn from that law directly:

    * the scatter is ``L W L^T`` with ``W ~ W(I_2m, n - 1)`` drawn as
      ``A A^T`` from its Bartlett factor ``A`` (lower triangular,
      ``A_ii^2 ~ chi2(n - 1 - i)`` for ``i = 0 .. 2m-1``, standard
      normal below the diagonal), or, when ``n - 1 < 2m`` and the
      Bartlett form does not exist, as the Gram of ``n - 1`` standard
      normal rows;
    * the mean is ``L z / sqrt(n)`` with ``z ~ N(0, I_2m)``.

    The generator is read in that order, scatter then mean.  The
    result is a table-less
    :meth:`~repro.randomization.base.DisguisedDataset.from_moments`
    dataset with ``noise_model`` as its public noise description.
    Under tracing the draw is a ``data.moments`` span (``n``, ``m``).
    """
    n = check_positive_int(n_records, "n_records", minimum=2)
    m = noise_model.dim
    if np.shape(data_root) != (m, m) or np.shape(noise_root) != (m, m):
        raise ValidationError(
            f"roots have shapes {np.shape(data_root)} and "
            f"{np.shape(noise_root)}; the noise model covers {m} attributes"
        )
    generator = as_generator(rng)
    dim, dof = 2 * m, n - 1
    with trace.span("data.moments", n=n, m=m):
        if dof >= dim:
            factor = np.zeros((dim, dim))
            factor[np.tril_indices(dim, -1)] = generator.standard_normal(
                dim * (dim - 1) // 2
            )
            factor[np.diag_indices(dim)] = np.sqrt(
                generator.chisquare(dof - np.arange(dim))
            )
        else:
            factor = generator.standard_normal((dof, dim)).T
        scaled = np.vstack([data_root @ factor[:m], noise_root @ factor[m:]])
        z = generator.standard_normal(dim) / math.sqrt(n)
        mean = np.concatenate([data_root @ z[:m], noise_root @ z[m:]])
        return DisguisedDataset.from_moments(
            n, mean, scaled @ scaled.T, noise_model
        )


@register_dataset("synthetic")
class SpectrumDatasetGenerator:
    """Spec-constructible wrapper around :func:`generate_dataset`.

    Holds the population description (eigenvalue spectrum and optional
    mean); every :meth:`sample` call draws a fresh random eigenbasis and
    a fresh table from the provided generator — exactly the paper's
    Section 7.1 per-trial pipeline, which the figure tasks run in moment
    space (:func:`sample_moments`).

    Parameters
    ----------
    spectrum:
        Eigenvalues of the population covariance, descending.
    mean:
        Optional population mean vector (defaults to zero).
    """

    def __init__(self, spectrum, *, mean=None):
        self._spectrum = check_vector(spectrum, "spectrum")
        if self._spectrum.size < 1:
            raise ValidationError("'spectrum' must be non-empty")
        self._mean = None if mean is None else check_vector(mean, "mean")
        if self._mean is not None and self._mean.size != self._spectrum.size:
            raise ValidationError(
                f"mean has length {self._mean.size}, spectrum has "
                f"{self._spectrum.size}"
            )

    @property
    def n_attributes(self) -> int:
        """Number of generated attributes."""
        return int(self._spectrum.size)

    @property
    def spectrum(self) -> np.ndarray:
        """Population eigenvalues (copy)."""
        return self._spectrum.copy()

    def sample(self, n_records: int, rng=None) -> SyntheticDataset:
        """Draw a fresh eigenbasis and table (Section 7.1 steps 2-5)."""
        return generate_dataset(
            spectrum=self._spectrum,
            n_records=n_records,
            mean=self._mean,
            rng=rng,
        )

    def to_spec(self) -> dict:
        spec: dict = {"kind": "synthetic", "spectrum": self._spectrum.tolist()}
        if self._mean is not None:
            spec["mean"] = self._mean.tolist()
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "SpectrumDatasetGenerator":
        check_spec(spec, "synthetic", required=("spectrum",), optional=("mean",))
        return cls(spec["spectrum"], mean=spec.get("mean"))

    def __repr__(self) -> str:
        return f"SpectrumDatasetGenerator(m={self.n_attributes})"
