"""Kalman/RTS smoother attack on randomized multivariate time series.

The strongest form of the paper's sample-dependency threat (Section 3):
where :class:`~repro.reconstruction.wiener.WienerSmootherReconstructor`
de-noises each channel separately, this attack fits a linear state-space
model to the *disguised* series and runs the full Kalman forward filter
plus Rauch-Tung-Striebel backward smoother — exploiting temporal and
cross-attribute correlation jointly.  It is the time-series counterpart
of BE-DR: the exact Gaussian posterior mean of the whole trajectory.

Model: ``x_t = A x_{t-1} + w_t`` with ``w ~ N(0, Q)``, observed as
``y_t = x_t + v_t`` with the public noise ``v ~ N(0, Sigma_r)``.

System identification from public data only (the Theorem-5.1 idea
extended one lag):

* ``C0_x = Cov(y) - Sigma_r``         (white noise inflates lag 0 only)
* ``C1_x = lag-1 cross-covariance of y``  (noise is serially independent)
* ``A = C1_x C0_x^{-1}``              (Yule-Walker, order 1)
* ``Q = C0_x - A C0_x A^T``           (stationarity)

Estimated transitions with spectral radius >= 1 are rescaled slightly
inside the unit circle so the filter stays stable on finite samples.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.covariance import sample_covariance
from repro.linalg.psd import nearest_psd, psd_inverse
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.registry import check_spec, register_attack
from repro.telemetry import trace
from repro.telemetry.convergence import NULL_TRACKER
from repro.utils.validation import check_in_range

__all__ = ["KalmanSmootherReconstructor"]


@register_attack("kalman")
class KalmanSmootherReconstructor(Reconstructor):
    """State-space smoother attack for serially dependent tables.

    Rows are consecutive time steps; all columns are smoothed jointly.

    Parameters
    ----------
    max_spectral_radius:
        Stability cap applied to the estimated transition matrix; must
        lie in ``(0, 1)``.
    """

    name = "Kalman"

    def __init__(self, *, max_spectral_radius: float = 0.995):
        self._max_radius = check_in_range(
            max_spectral_radius, "max_spectral_radius",
            low=0.0, high=1.0,
            inclusive_low=False, inclusive_high=False,
        )

    def to_spec(self) -> dict:
        """JSON-safe registry spec (``{"kind": ..., ...}``) of this attack."""
        return {"kind": "kalman", "max_spectral_radius": self._max_radius}

    @classmethod
    def from_spec(cls, spec: dict) -> "KalmanSmootherReconstructor":
        """Rebuild the attack from a :meth:`to_spec` dict."""
        check_spec(spec, "kalman", optional=("max_spectral_radius",))
        return cls(
            max_spectral_radius=float(spec.get("max_spectral_radius", 0.995))
        )

    def _reconstruct(
        self,
        disguised: np.ndarray,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        n, m = disguised.shape
        if n < 4:
            raise ValidationError(
                "Kalman smoothing needs at least 4 time steps"
            )
        mean = disguised.mean(axis=0) - noise_model.mean
        centered = disguised - disguised.mean(axis=0)
        noise_cov = noise_model.covariance

        transition, process_cov, state_cov = self._identify(
            centered, noise_cov
        )
        if not trace.enabled():
            smoothed = self._rts_smooth(
                centered, transition, process_cov, state_cov, noise_cov
            )
        else:
            # One span for the whole smoothing pass; the tracker feeds
            # it one record per forward-filter time step (innovation
            # norm + innovation-covariance condition), the numerical
            # vitals of the filter.
            with trace.span("kalman.smooth", n=n, m=m):
                tracker = trace.iterations("kalman.filter")
                smoothed = self._rts_smooth(
                    centered, transition, process_cov, state_cov,
                    noise_cov, tracker,
                )
                tracker.finish()
        return ReconstructionResult(
            estimate=smoothed + mean,
            method=self.name,
            details={
                "transition": transition,
                "process_covariance": process_cov,
                "spectral_radius": float(
                    np.max(np.abs(np.linalg.eigvals(transition)))
                ),
            },
        )

    # ------------------------------------------------------------------
    def _identify(self, centered: np.ndarray, noise_cov: np.ndarray):
        """Yule-Walker order-1 identification from the disguised series."""
        n = centered.shape[0]
        cov_y = sample_covariance(centered)
        state_cov = nearest_psd(cov_y - noise_cov, floor=1e-8)
        lag1 = centered[1:].T @ centered[:-1] / (n - 1)
        transition = lag1 @ psd_inverse(state_cov)
        # Stability cap: finite-sample estimates can step outside the
        # unit circle even for a stationary truth.
        radius = float(np.max(np.abs(np.linalg.eigvals(transition))))
        if radius >= self._max_radius:
            transition = transition * (self._max_radius / radius)
        process_cov = nearest_psd(
            state_cov - transition @ state_cov @ transition.T,
            floor=1e-10,
        )
        return transition, process_cov, state_cov

    @staticmethod
    def _rts_smooth(
        observations: np.ndarray,
        transition: np.ndarray,
        process_cov: np.ndarray,
        state_cov: np.ndarray,
        noise_cov: np.ndarray,
        tracker=NULL_TRACKER,
    ) -> np.ndarray:
        """Forward Kalman filter + RTS backward pass (zero-mean data).

        ``tracker`` receives one record per forward time step: the
        innovation norm ``|y_t - ŷ_t|`` as the delta and the condition
        number of the innovation covariance — both guarded behind
        ``tracker.enabled`` so the untraced filter computes neither.
        """
        n, m = observations.shape
        identity = np.eye(m)

        filtered_means = np.empty((n, m))
        filtered_covs = np.empty((n, m, m))
        predicted_means = np.empty((n, m))
        predicted_covs = np.empty((n, m, m))

        # Stationary initialization.
        mean = np.zeros(m)
        cov = state_cov
        for t in range(n):
            if t > 0:
                mean = transition @ mean
                cov = nearest_psd(
                    transition @ cov @ transition.T + process_cov
                )
            predicted_means[t] = mean
            predicted_covs[t] = cov
            innovation_cov = cov + noise_cov
            gain = cov @ psd_inverse(innovation_cov)
            if tracker.enabled:
                tracker.record(
                    delta=float(np.linalg.norm(observations[t] - mean)),
                    condition=float(np.linalg.cond(innovation_cov)),
                )
            mean = mean + gain @ (observations[t] - mean)
            cov = nearest_psd((identity - gain) @ cov)
            filtered_means[t] = mean
            filtered_covs[t] = cov

        smoothed = np.empty((n, m))
        smoothed[-1] = filtered_means[-1]
        smooth_cov = filtered_covs[-1]
        for t in range(n - 2, -1, -1):
            predicted = predicted_covs[t + 1]
            smoother_gain = (
                filtered_covs[t] @ transition.T @ psd_inverse(predicted)
            )
            smoothed[t] = filtered_means[t] + smoother_gain @ (
                smoothed[t + 1] - predicted_means[t + 1]
            )
            smooth_cov = nearest_psd(
                filtered_covs[t]
                + smoother_gain
                @ (smooth_cov - predicted)
                @ smoother_gain.T
            )
        return smoothed

    def __repr__(self) -> str:
        return (
            "KalmanSmootherReconstructor("
            f"max_spectral_radius={self._max_radius:g})"
        )
