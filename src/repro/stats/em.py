"""Expectation-maximization for univariate Gaussian mixtures.

Supports the non-Gaussian-prior extension: the adversary can fit a
mixture to (a deconvolved estimate of) the original marginal and feed it
to the gradient-descent MAP reconstructor (Section 6's closing remark
that non-normal priors require numerical methods).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.stats.density import GaussianMixtureDensity
from repro.telemetry import trace
from repro.telemetry.convergence import NULL_TRACKER
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int, check_vector

__all__ = ["UnivariateGaussianMixtureEM"]

#: Log-likelihood values a :class:`~repro.exceptions.ConvergenceError`
#: carries as its trajectory tail (kept regardless of tracing, so the
#: exception is diagnosable even from an untraced production run).
_ERROR_TAIL = 8


class UnivariateGaussianMixtureEM:
    """EM fitting of a ``k``-component univariate Gaussian mixture.

    Parameters
    ----------
    n_components:
        Number of mixture components ``k >= 1``.
    max_iter:
        Iteration budget.
    tol:
        Convergence threshold on the mean log-likelihood improvement.
    min_std:
        Lower bound on component standard deviations, preventing the
        classic EM variance collapse onto a single sample.
    """

    def __init__(
        self,
        n_components: int,
        *,
        max_iter: int = 200,
        tol: float = 1e-7,
        min_std: float = 1e-3,
    ):
        self.n_components = check_positive_int(n_components, "n_components")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        if tol <= 0.0:
            raise ValidationError(f"tol must be positive, got {tol}")
        self.tol = float(tol)
        if min_std <= 0.0:
            raise ValidationError(f"min_std must be positive, got {min_std}")
        self.min_std = float(min_std)

    def fit(self, samples, rng=None) -> GaussianMixtureDensity:
        """Fit the mixture to samples and return the resulting density.

        When tracing is active (see :mod:`repro.telemetry.trace`), the
        whole sweep is covered by one ``em.fit`` span annotated with the
        sample count, component count, and realized iteration count, and
        an :class:`~repro.telemetry.convergence.IterationTracker`
        records the per-iteration log-likelihood trajectory into the
        span's ``repro-convergence/v1`` payload; with tracing off the
        hook is a single predicate check and the tracker is the shared
        no-op singleton, pinned under 2% overhead by the
        overhead-budget tests in ``tests/unit/test_telemetry.py``.

        Raises
        ------
        ConvergenceError
            If the log-likelihood has not stabilized within ``max_iter``
            iterations.  The exception carries the final
            log-likelihood, the last delta, and the trajectory tail.
        """
        data = check_vector(samples, "samples", min_length=self.n_components)
        generator = as_generator(rng)
        if not trace.enabled():
            return self._fit(data, generator, NULL_TRACKER)[0]
        with trace.span(
            "em.fit", n=int(data.size), n_components=self.n_components
        ) as span:
            tracker = trace.iterations("em.fit")
            try:
                density, iterations = self._fit(data, generator, tracker)
            except ConvergenceError:
                tracker.finish(converged=False)
                raise
            span.set(iterations=iterations)
            tracker.finish(converged=True)
            return density

    def _fit(self, data, generator, tracker=NULL_TRACKER):
        """The EM sweep behind :meth:`fit`; returns ``(density, iterations)``.

        ``tracker`` receives one record per iteration (log-likelihood
        and its improvement); the default no-op tracker keeps the
        untraced path allocation-free.  The numerics are identical
        either way — every recorded value is computed by the sweep
        itself.
        """
        weights, means, stds = self._initialize(data, generator)

        previous_ll = -np.inf
        delta = math.inf
        tail: deque[float] = deque(maxlen=_ERROR_TAIL)
        for iteration in range(1, self.max_iter + 1):
            responsibilities, log_likelihood = self._e_step(
                data, weights, means, stds
            )
            weights, means, stds = self._m_step(data, responsibilities)
            delta = abs(log_likelihood - previous_ll)
            tail.append(log_likelihood)
            # Iteration 1 has no previous likelihood (delta is inf by
            # construction, not by sickness), so only the objective is
            # recorded for it.
            improvement = delta if iteration > 1 else None
            tracker.record(objective=log_likelihood, delta=improvement)
            if delta < self.tol * max(1.0, abs(previous_ll)):
                return GaussianMixtureDensity(weights, means, stds), iteration
            previous_ll = log_likelihood
        raise ConvergenceError(
            "EM did not converge",
            iterations=self.max_iter,
            final_objective=previous_ll,
            last_delta=delta,
            trajectory_tail=tuple(tail),
        )

    # ------------------------------------------------------------------
    def _initialize(self, data, generator):
        """Quantile-spread means, global variance, uniform weights."""
        k = self.n_components
        quantiles = np.linspace(0.0, 100.0, k + 2)[1:-1]
        means = np.percentile(data, quantiles)
        # Break ties for repeated quantiles with a small jitter.
        spread = max(float(np.std(data)), self.min_std)
        means = means + 0.01 * spread * generator.standard_normal(k)
        stds = np.full(k, max(spread, self.min_std))
        weights = np.full(k, 1.0 / k)
        return weights, means, stds

    def _e_step(self, data, weights, means, stds):
        """Responsibilities and total mean log-likelihood (log-sum-exp)."""
        z = (data[:, None] - means[None, :]) / stds[None, :]
        log_comp = (
            -0.5 * z * z
            - np.log(stds[None, :])
            - 0.5 * math.log(2.0 * math.pi)
            + np.log(np.maximum(weights[None, :], 1e-300))
        )
        peak = log_comp.max(axis=1, keepdims=True)
        stabilized = np.exp(log_comp - peak)
        norm = stabilized.sum(axis=1, keepdims=True)
        responsibilities = stabilized / norm
        log_likelihood = float(np.mean(np.log(norm.ravel()) + peak.ravel()))
        return responsibilities, log_likelihood

    def _m_step(self, data, responsibilities):
        """Closed-form weight/mean/variance updates."""
        counts = responsibilities.sum(axis=0)
        counts = np.maximum(counts, 1e-12)
        weights = counts / data.size
        means = (responsibilities.T @ data) / counts
        centered_sq = (data[:, None] - means[None, :]) ** 2
        variances = np.einsum("nk,nk->k", responsibilities, centered_sq) / counts
        stds = np.sqrt(np.maximum(variances, self.min_std**2))
        return weights, means, stds
