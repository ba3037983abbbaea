"""Per-dataset statistics shared by the correlation attacks.

SF (the Kargupta et al. baseline), PCA-DR (Section 5) and BE-DR
(Section 6, Theorem 8.1) all start from the same quantities of the
published table ``Y``: its column means, its sample covariance, and the
Theorem 5.1 / 8.2 estimate ``Cov(Y) - Sigma_r`` with its eigenvectors.
:class:`DisguisedStatistics` computes each of them at most once per
``(Y, noise model)`` pair, so running the whole attack battery on one
dataset estimates ``Cov(Y)`` once instead of once per attack.

Only ``O(m^2)`` values are cached, never a centred ``(n, m)`` copy.  The
cached arrays are read-only: they are shared by every attack, and a
caller mutating one would silently corrupt the others.  A statistic
whose computation raises is not cached, so every attack needing it
raises (and records) the error itself.  The cache takes no lock: two
threads racing on one dataset at worst compute a statistic twice, with
identical results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.linalg.covariance import covariance_from_disguised, sample_covariance
from repro.linalg.eigen import EigenDecomposition, sorted_eigh
from repro.linalg.psd import psd_inverse

if TYPE_CHECKING:
    from repro.randomization.base import NoiseModel

__all__ = ["DisguisedStatistics"]


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
        self._disguised = disguised
        self._noise_model = noise_model
        self._cache: dict[Any, Any] = {}

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
        :func:`~repro.linalg.covariance.covariance_from_disguised`), one
        per ``estimator`` (``"sample"`` or ``"ledoit-wolf"``).  The
        ``"sample"`` estimate reuses :attr:`covariance`.
        """
        return self._cached(
            ("estimate", estimator),
            lambda: covariance_from_disguised(
                self._disguised,
                self._noise_model.covariance,
                estimator=estimator,
                covariance_y=(
                    self.covariance if estimator == "sample" else None
                ),
                return_decomposition=True,
            ),
        )

    @property
    def noise_precision(self) -> np.ndarray:
        """``Sigma_r^-1`` via :func:`~repro.linalg.psd.psd_inverse`."""
        return self._cached(
            "noise_precision",
            lambda: psd_inverse(self._noise_model.covariance),
        )


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
