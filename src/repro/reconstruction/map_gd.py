"""Gradient-ascent MAP reconstruction for non-Gaussian priors.

Section 6 closes: "for other distributions, we might not be able to
derive an equation with a simple analytic form for its first derivative.
In such situations, the Bayes estimate must be sought using numerical
methods, such as Gradient descent methods.  We will study them in our
future work."  This module is that future work for univariate priors:
each attribute's posterior ``f_X(x) f_R(y - x)`` is maximized by damped
Newton ascent on the log-posterior, with multi-start to cope with the
multi-modality a mixture prior induces.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.statistics import DisguisedStatistics
from repro.randomization.base import NoiseModel
from repro.reconstruction.base import ReconstructionResult, Reconstructor
from repro.reconstruction.udr import noise_marginal_density
from repro.stats.density import (
    Density,
    GaussianDensity,
    GaussianMixtureDensity,
)
from repro.telemetry import trace
from repro.telemetry.convergence import NULL_TRACKER
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["MAPGradientReconstructor"]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _log_prior_and_grad(density: Density, x: np.ndarray):
    """Log prior and its derivative, analytic where possible.

    Gaussian and Gaussian-mixture priors get exact gradients; any other
    :class:`Density` falls back to a central finite difference.

    Parameters
    ----------
    density:
        The prior ``f_X``.
    x:
        Evaluation points, any shape (the batched ascent passes a
        ``(n_starts, n)`` matrix); both returns match ``x``'s shape.

    Returns
    -------
    (log_p, grad):
        ``log f_X(x)`` and ``d/dx log f_X(x)``, elementwise.
    """
    if isinstance(density, GaussianDensity):
        variance = density.variance
        centered = x - density.mean
        log_p = -0.5 * centered**2 / variance - np.log(
            density.std * _SQRT_2PI
        )
        grad = -centered / variance
        return log_p, grad
    if isinstance(density, GaussianMixtureDensity):
        weights = density.weights
        means = density.means
        stds = density.stds
        z = (x[..., None] - means) / stds
        comp = weights * np.exp(-0.5 * z * z) / (stds * _SQRT_2PI)
        total = np.maximum(comp.sum(axis=-1), 1e-300)
        # d/dx sum_k w_k N_k = sum_k w_k N_k * (-(x - mu_k)/sigma_k^2)
        slope = (comp * (-(x[..., None] - means) / stds**2)).sum(axis=-1)
        return np.log(total), slope / total
    # Generic fallback: finite differences on log pdf.
    h = 1e-5 * max(density.std, 1e-6)
    forward = np.log(np.maximum(density.pdf(x + h), 1e-300))
    backward = np.log(np.maximum(density.pdf(x - h), 1e-300))
    log_p = np.log(np.maximum(density.pdf(x), 1e-300))
    return log_p, (forward - backward) / (2.0 * h)


class MAPGradientReconstructor(Reconstructor):
    """Numerical MAP attack with per-attribute non-Gaussian priors.

    Parameters
    ----------
    priors:
        One :class:`Density` per attribute — the adversary's model of the
        original marginals (oracle in experiments; an EM-fitted mixture in
        practice, see :class:`repro.stats.em.UnivariateGaussianMixtureEM`).
    n_starts:
        Multi-start count per sample.  Starts are the disguised value
        itself plus the prior's component means (for mixtures), padded
        with prior-spread perturbations.
    max_iter:
        Ascent iteration budget per start.
    step_scale:
        Initial step size as a fraction of the noise std.
    """

    name = "MAP-GD"

    def __init__(
        self,
        priors: Sequence[Density],
        *,
        n_starts: int = 4,
        max_iter: int = 100,
        step_scale: float = 0.5,
    ):
        if not isinstance(priors, Sequence) or not all(
            isinstance(d, Density) for d in priors
        ):
            raise ValidationError(
                "'priors' must be a sequence of Density objects"
            )
        self._priors = tuple(priors)
        self._n_starts = check_positive_int(n_starts, "n_starts")
        self._max_iter = check_positive_int(max_iter, "max_iter")
        self._step_scale = check_in_range(
            step_scale, "step_scale", low=0.0, inclusive_low=False
        )

    def _reconstruct(
        self,
        disguised: np.ndarray,
        noise_model: NoiseModel,
        statistics: DisguisedStatistics,
    ) -> ReconstructionResult:
        n, m = disguised.shape
        if len(self._priors) != m:
            raise ValidationError(
                f"got {len(self._priors)} priors for {m} attributes"
            )
        # One coarse span for the whole multi-column ascent; when
        # tracing is off this is a shared no-op singleton, so the hook
        # costs one predicate check per reconstruct call.  Under
        # tracing each column additionally gets its own child span
        # carrying the ascent's convergence payload.
        with trace.span(
            "map_gd.reconstruct", n=n, m=m, n_starts=self._n_starts
        ):
            estimate = np.empty_like(disguised)
            for j in range(m):
                noise = noise_marginal_density(noise_model, j)
                if noise.variance <= 0.0:
                    raise ValidationError(
                        f"attribute {j} has non-positive noise variance"
                    )
                column = disguised[:, j] - noise.mean
                if not trace.enabled():
                    estimate[:, j] = self._map_column(
                        column, self._priors[j], noise
                    )
                else:
                    with trace.span("map_gd.column", attribute=j):
                        estimate[:, j] = self._map_column(
                            column,
                            self._priors[j],
                            noise,
                            trace.iterations("map_gd.ascent"),
                        )
        return ReconstructionResult(
            estimate=estimate,
            method=self.name,
            details={"n_starts": self._n_starts},
        )

    # ------------------------------------------------------------------
    def _map_column(
        self,
        column: np.ndarray,
        prior: Density,
        noise: Density,
        tracker=NULL_TRACKER,
    ) -> np.ndarray:
        """MAP estimate for every sample of one attribute.

        All multi-start trajectories run *batched*: the ascent state is
        an ``(n_starts, n)`` matrix and each damped-Newton iteration
        advances every start in one vectorized pass.  Starts are
        independent elementwise, so this reproduces the historical
        one-start-at-a-time loop bit for bit — including its early
        exit, emulated by freezing a start's row once its largest step
        falls below ``1e-8 * step`` — while evaluating the prior once
        per accepted point instead of twice (the old loop recomputed
        the log-prior of the current iterate inside the objective).

        Parameters
        ----------
        column:
            Noise-mean-adjusted disguised values, shape ``(n,)``.
        prior:
            The attribute's prior ``f_X``.
        noise:
            Univariate noise marginal ``f_R``.
        tracker:
            Convergence tracker fed once per ascent iteration (best
            objective, current step scale, rejected-proposal count).
            Every derived statistic is guarded behind
            ``tracker.enabled``, so the default no-op tracker keeps
            the untraced path free of extra reductions; the accepted
            iterates themselves are untouched either way.

        Returns
        -------
        numpy.ndarray
            MAP estimates, shape ``(n,)``.
        """
        starts = self._build_starts(column, prior)
        noise_var = noise.variance
        step = self._step_scale * noise.std

        x = np.stack(starts)  # (n_starts, n)
        col = np.broadcast_to(column, x.shape)
        log_p, grad_prior = _log_prior_and_grad(prior, x)
        obj = log_p - 0.5 * (col - x) ** 2 / noise_var
        # The historical best-so-far seed: start 0 at its initial point.
        best_x = x[0].copy()
        best_obj = obj[0].copy()

        current_step = np.full_like(x, step)
        active = np.ones(x.shape[0], dtype=bool)
        for _ in range(self._max_iter):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            xa = x[rows]
            step_a = current_step[rows]
            col_a = np.broadcast_to(column, xa.shape)
            grad = grad_prior[rows] + (col_a - xa) / noise_var
            proposal = xa + np.clip(step_a * grad, -3.0 * step, 3.0 * step)
            new_log_p, new_grad_prior = _log_prior_and_grad(prior, proposal)
            new_obj = new_log_p - 0.5 * (col_a - proposal) ** 2 / noise_var
            improved = new_obj > obj[rows]
            x[rows] = np.where(improved, proposal, xa)
            obj[rows] = np.where(improved, new_obj, obj[rows])
            grad_prior[rows] = np.where(
                improved, new_grad_prior, grad_prior[rows]
            )
            # Halve the step where the ascent overshot.
            step_a = np.where(improved, step_a, step_a * 0.5)
            current_step[rows] = step_a
            active[rows] = step_a.max(axis=1) >= 1e-8 * step
            if tracker.enabled:
                tracker.record(
                    objective=float(obj.max()),
                    delta=float(step_a.max()),
                    rejected=int(improved.size)
                    - int(np.count_nonzero(improved)),
                )
        if tracker.enabled:
            # Converged means every start froze before the budget ran
            # out; leftover active rows mean the iteration cap bit.
            tracker.finish(converged=not bool(active.any()))
        # Sequential best-of-starts reduction, in start order (matching
        # the historical loop's strict-improvement tie-breaking).
        for s in range(x.shape[0]):
            better = obj[s] > best_obj
            best_x = np.where(better, x[s], best_x)
            best_obj = np.where(better, obj[s], best_obj)
        return best_x

    def _build_starts(self, column: np.ndarray, prior: Density) -> list:
        """Start points: the observation, prior landmarks, offset copies.

        ``n_starts`` is a minimum — a mixture prior contributes one start
        per component mean on top, since each component is a candidate
        posterior mode.
        """
        starts = [column]
        if isinstance(prior, GaussianMixtureDensity):
            for mean in prior.means:
                starts.append(np.full_like(column, mean))
        starts.append(np.full_like(column, prior.mean))
        spread = prior.std
        k = 1
        while len(starts) < self._n_starts:
            offset = spread * (0.5 * k) * (-1 if k % 2 else 1)
            starts.append(column + offset)
            k += 1
        return starts

    @staticmethod
    def _objective(
        x: np.ndarray, column: np.ndarray, prior: Density, noise_var: float
    ) -> np.ndarray:
        """Elementwise log posterior (up to the f_Y(y) constant)."""
        log_prior, _ = _log_prior_and_grad(prior, x)
        return log_prior - 0.5 * (column - x) ** 2 / noise_var
