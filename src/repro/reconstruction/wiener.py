"""Wiener-smoother attack on serially dependent data.

Section 3's second disclosure factor: "for certain types of data, such as
the time series data, there exists serial dependency among the samples
... various techniques are available from the signal processing
literature to de-noise the contaminated signals."  This reconstructor is
that technique: the linear MMSE (Wiener) smoother applied per channel
over a sliding window.

It is the exact temporal analogue of BE-DR — the same Gaussian posterior
mean, with correlation across *records* (time) instead of across
*attributes*.  The signal autocovariance is estimated from the disguised
series via the time-series version of Theorem 5.1: the noise being white,
it only inflates the lag-0 autocovariance by ``sigma^2``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.psd import nearest_psd, psd_inverse
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.registry import check_spec, register_attack
from repro.utils.validation import check_positive_int

__all__ = ["WienerSmootherReconstructor"]


@register_attack("wiener")
class WienerSmootherReconstructor(Reconstructor):
    """Sliding-window linear MMSE smoother for ``Y_t = X_t + R_t``.

    Rows of the input are interpreted as consecutive time steps; each
    column is an independent channel (cross-channel correlation is BE-DR's
    job — compose the two attacks for both axes).

    Parameters
    ----------
    window:
        Odd window length ``w``; each estimate conditions on the ``w``
        disguised values centered on the target step.
    max_lag:
        Autocovariance lags to estimate; defaults to ``window - 1``.
    """

    name = "Wiener"

    def __init__(self, *, window: int = 21, max_lag: int | None = None):
        self._window = check_positive_int(window, "window", minimum=3)
        if self._window % 2 == 0:
            raise ValidationError(
                f"window must be odd, got {self._window}"
            )
        if max_lag is None:
            max_lag = self._window - 1
        self._max_lag = check_positive_int(max_lag, "max_lag")
        if self._max_lag < self._window - 1:
            raise ValidationError(
                f"max_lag={self._max_lag} must cover the window "
                f"(>= {self._window - 1})"
            )

    @property
    def window(self) -> int:
        """Sliding-window length."""
        return self._window

    def to_spec(self) -> dict:
        """JSON-safe registry spec (``{"kind": ..., ...}``) of this attack."""
        return {
            "kind": "wiener",
            "window": self._window,
            "max_lag": self._max_lag,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "WienerSmootherReconstructor":
        """Rebuild the attack from a :meth:`to_spec` dict."""
        check_spec(spec, "wiener", optional=("window", "max_lag"))
        max_lag = spec.get("max_lag")
        return cls(
            window=int(spec.get("window", 21)),
            max_lag=None if max_lag is None else int(max_lag),
        )

    def _reconstruct(
        self,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        disguised = statistics.table
        n, m = disguised.shape
        if n <= self._window:
            raise ValidationError(
                f"series of length {n} is shorter than window "
                f"{self._window}"
            )
        estimate = np.empty_like(disguised)
        gains = []
        for j in range(m):
            noise_var = float(noise_model.covariance[j, j])
            channel = disguised[:, j] - float(noise_model.mean[j])
            smoothed, gain = self._smooth_channel(channel, noise_var)
            estimate[:, j] = smoothed
            gains.append(gain)
        return ReconstructionResult(
            estimate=estimate,
            method=self.name,
            details={"window": self._window, "gains": gains},
        )

    # ------------------------------------------------------------------
    def _smooth_channel(
        self, channel: np.ndarray, noise_var: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Wiener-smooth one channel; returns (estimate, center gain row)."""
        mean = float(channel.mean())
        centered = channel - mean
        autocov_y = _autocovariance(centered, self._max_lag)
        # Time-series Theorem 5.1: white noise only inflates lag 0.
        autocov_x = autocov_y.copy()
        autocov_x[0] = max(autocov_x[0] - noise_var, 0.0)

        w = self._window
        lags = np.abs(np.subtract.outer(np.arange(w), np.arange(w)))
        toeplitz_x = nearest_psd(autocov_x[lags])
        toeplitz_y = toeplitz_x + noise_var * np.eye(w)
        center = w // 2
        # gain = Sigma_x[center, :] @ Sigma_y^{-1}: the smoother weights.
        gain = toeplitz_x[center] @ psd_inverse(toeplitz_y)

        padded = np.pad(centered, (center, center), mode="reflect")
        windows = np.lib.stride_tricks.sliding_window_view(padded, w)
        smoothed = windows @ gain + mean
        return smoothed, gain


def _autocovariance(centered: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocovariance for lags ``0..max_lag``.

    The biased (divide by ``n``) estimator keeps the implied Toeplitz
    matrix positive semidefinite, which the smoother needs.
    """
    n = centered.size
    if max_lag >= n:
        raise ValidationError(
            f"max_lag={max_lag} requires a series longer than {max_lag}"
        )
    result = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        result[lag] = float(
            np.dot(centered[: n - lag], centered[lag:]) / n
        )
    return result
