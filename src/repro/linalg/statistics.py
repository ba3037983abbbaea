"""Per-dataset statistics shared by the correlation attacks.

SF (the Kargupta et al. baseline), PCA-DR (Section 5) and BE-DR
(Section 6, Theorem 8.1) all start from the same quantities of the
published table ``Y``: its column means, its sample covariance, and the
Theorem 5.1 / 8.2 estimate ``Cov(Y) - Sigma_r`` with its eigenvectors.
UDR's Gaussian prior reads the means and the covariance's diagonal.
:class:`DisguisedStatistics` computes each of them at most once per
``(Y, noise model)`` pair, so running the whole attack battery on one
dataset estimates ``Cov(Y)`` once instead of once per attack.

Under isotropic noise ``Sigma_r = sigma^2 I`` the whole battery runs one
``eigh``: Theorem 5.1's estimate ``Cov(Y) - sigma^2 I`` has the
eigenvectors of ``Cov(Y)`` and its eigenvalues shifted by ``-sigma^2``,
so it is derived from :attr:`DisguisedStatistics.covariance_eigen`
rather than decomposed again.

The affine attacks read nothing but ``n``, the column means and
``Cov(Y)`` (and what is derived from them), so
:meth:`DisguisedStatistics.from_moments` builds a table-less view from
those sufficient statistics alone; :attr:`DisguisedStatistics.table`
then raises for anything that needs the ``(n, m)`` table itself.

Only ``O(m^2)`` values are cached, never a centred ``(n, m)`` copy.  The
cached arrays are read-only: they are shared by every attack, and a
caller mutating one would silently corrupt the others.  A statistic
whose computation raises is not cached, so every attack needing it
raises (and records) the error itself.  The cache takes no lock: two
threads racing on one dataset at worst compute a statistic twice, with
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.exceptions import NotPositiveDefiniteError, ValidationError
from repro.linalg.covariance import covariance_from_disguised, sample_covariance
from repro.linalg.eigen import EigenDecomposition, sorted_eigh
from repro.linalg.psd import nearest_psd
from repro.utils.validation import check_matrix, check_vector

if TYPE_CHECKING:
    from repro.randomization.base import NoiseModel

__all__ = ["DisguisedStatistics", "ReferenceGram"]


class DisguisedStatistics:
    """Lazily computed, cached statistics of one disguised table.

    Parameters
    ----------
    disguised:
        The published matrix ``Y``, shape ``(n, m)``.  It must not be
        modified while this object is in use.
    noise_model:
        The public :class:`~repro.randomization.base.NoiseModel` of ``Y``.
    """

    def __init__(self, disguised: np.ndarray, noise_model: NoiseModel):
        self._disguised: np.ndarray | None = disguised
        self._noise_model = noise_model
        self._cache: dict[Any, Any] = {}
        self._shape = (int(disguised.shape[0]), int(disguised.shape[1]))

    @classmethod
    def from_moments(
        cls,
        n_records: int,
        column_means: np.ndarray,
        covariance: np.ndarray,
        noise_model: NoiseModel,
    ) -> "DisguisedStatistics":
        """Table-less view from ``n``, the column means and ``Cov(Y)``.

        ``covariance`` is the ``ddof=1`` sample covariance.  Every
        statistic derives from these as it does in the table form;
        :attr:`table` raises.
        """
        m = noise_model.dim
        means = check_vector(column_means, "column_means").copy()
        cov = check_matrix(covariance, "covariance").copy()
        if means.size != m or cov.shape != (m, m):
            raise ValidationError(
                f"moments have shapes {means.shape} and {cov.shape}; the "
                f"noise model covers {m} attributes"
            )
        if int(n_records) < 2:
            raise ValidationError(f"need at least 2 records, got {n_records}")
        statistics = cls.__new__(cls)
        statistics._disguised = None
        statistics._noise_model = noise_model
        statistics._cache = {"mean": _read_only(means), "covariance": _read_only(cov)}
        statistics._shape = (int(n_records), m)
        return statistics

    @property
    def n_records(self) -> int:
        """Number of published records ``n``."""
        return self._shape[0]

    @property
    def n_attributes(self) -> int:
        """Number of attributes ``m``."""
        return self._shape[1]

    @property
    def table(self) -> np.ndarray:
        """The published ``(n, m)`` matrix ``Y``.

        Raises :class:`~repro.exceptions.ValidationError` for a view built
        by :meth:`from_moments`, which holds no table.
        """
        if self._disguised is None:
            raise ValidationError(
                "the published (n, m) table is not held: this view was "
                "built from sufficient statistics, which only serve "
                "attacks affine in Y (UDR with a Gaussian prior, SF, "
                "PCA-DR, BE-DR) scored in closed form"
            )
        return self._disguised

    def _cached(self, key: Any, compute: Callable[[], Any]) -> Any:
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = _read_only(compute())
        self._cache[key] = value
        return value

    @property
    def column_means(self) -> np.ndarray:
        """Column means of ``Y``, shape ``(m,)``."""
        return self._cached("mean", lambda: self._disguised.mean(axis=0))

    @property
    def covariance(self) -> np.ndarray:
        """Sample covariance ``Cov(Y)`` (``ddof=1``), shape ``(m, m)``."""
        return self._cached(
            "covariance", lambda: sample_covariance(self._disguised)
        )

    @property
    def covariance_eigen(self) -> EigenDecomposition:
        """Sorted eigendecomposition of :attr:`covariance` (SF's input)."""
        return self._cached(
            "covariance_eigen", lambda: sorted_eigh(self.covariance)
        )

    def estimate(
        self, estimator: str = "sample"
    ) -> tuple[np.ndarray, EigenDecomposition]:
        """Theorem 5.1 / 8.2 estimate of ``Cov(X)`` and its decomposition.

        The estimate is ``Cov(Y) - Sigma_r`` after PSD repair (see
        :func:`~repro.linalg.psd.nearest_psd`), one per ``estimator``
        (``"sample"`` or ``"ledoit-wolf"``).  The ``"sample"`` estimate
        reuses :attr:`covariance`, and under isotropic noise also the
        eigenvectors of :attr:`covariance_eigen`.
        """
        return self._cached(
            ("estimate", estimator), lambda: self._estimate(estimator)
        )

    def _estimate(self, estimator: str) -> tuple[np.ndarray, EigenDecomposition]:
        model = self._noise_model
        if estimator == "sample" and model.is_isotropic:
            variance, eigen = model.scalar_variance, self.covariance_eigen
            return nearest_psd(
                self.covariance - variance * np.eye(eigen.dim),
                return_decomposition=True,
                decomposition=EigenDecomposition(
                    eigen.values - variance, eigen.vectors
                ),
            )
        return covariance_from_disguised(
            None if estimator == "sample" else self.table,
            model.covariance,
            estimator=estimator,
            covariance_y=self.covariance if estimator == "sample" else None,
            return_decomposition=True,
        )

    @property
    def noise_cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of ``Sigma_r``.

        Theorem 8.1 needs ``Sigma_r`` positive definite; reading this
        raises :class:`~repro.exceptions.NotPositiveDefiniteError` when
        it is not.
        """
        return self._cached(
            "noise_cholesky",
            lambda: _cholesky(self._noise_model.covariance),
        )


@dataclass(frozen=True, eq=False)
class ReferenceGram:
    """Gram quantities of the private original ``X`` against ``Y``.

    With ``Xc = X - mean``: ``mean`` (``m``), ``sq_norms = diag(Xc^T Xc)``
    (``m``) and ``cross = Xc^T Y`` (``m x m``), which is ``Xc^T Yc`` for
    any centring ``Yc`` of ``Y``, as the columns of ``Xc`` sum to zero.
    Together with :attr:`DisguisedStatistics.covariance` they score any
    reconstruction affine in ``Y`` without building it
    (:mod:`repro.metrics.error`).  They are derived from ``X``, so they
    live on the dataset's private side, never in
    :class:`DisguisedStatistics`, which attacks read.

    :meth:`of` computes them from the two tables; the constructor takes
    them as sufficient statistics directly.  The arrays are made
    read-only either way.
    """

    mean: np.ndarray
    sq_norms: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        _read_only((self.mean, self.sq_norms, self.cross))

    @classmethod
    def of(cls, original: np.ndarray, disguised: np.ndarray) -> "ReferenceGram":
        """Compute the three quantities in one pass over each table."""
        mean = original.mean(axis=0)
        centred = original - mean
        sq_norms = np.einsum("ij,ij->j", centred, centred)
        return cls(mean, sq_norms, centred.T @ disguised)


def _cholesky(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky`` raising the library's error on failure."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as error:
        raise NotPositiveDefiniteError(
            "noise covariance is not positive definite"
        ) from error


def _read_only(value: Any) -> Any:
    """Mark every array in a cached value read-only; return the value."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, EigenDecomposition):
        _read_only(value.values)
        _read_only(value.vectors)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value
