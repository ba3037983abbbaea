"""Unit tests for the Kalman/RTS smoother attack."""

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from repro.data.timeseries import VectorAutoregressiveGenerator
from repro.exceptions import ValidationError
from repro.metrics.error import root_mean_square_error
from repro.randomization.additive import AdditiveNoiseScheme
from repro.reconstruction.kalman import KalmanSmootherReconstructor
from repro.reconstruction.ndr import NoiseDistributionReconstructor
from repro.reconstruction.wiener import WienerSmootherReconstructor
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder


def _coupled_var_case(n=4000, sigma=2.0, seed=0):
    """VAR(1) with cross-channel coupling: channel 1 leads channel 0."""
    transition = np.array([[0.85, 0.3], [0.0, 0.9]])
    generator = VectorAutoregressiveGenerator(
        transition, innovation_std=1.0
    )
    series = generator.sample(n, rng=seed)
    disguised = AdditiveNoiseScheme(std=sigma).disguise(
        series, rng=seed + 1
    )
    return series, disguised, generator


class TestKalmanSmoother:
    def test_beats_ndr_strongly(self):
        series, disguised, _ = _coupled_var_case()
        kalman = root_mean_square_error(
            series, KalmanSmootherReconstructor().reconstruct(disguised)
        )
        ndr = root_mean_square_error(
            series,
            NoiseDistributionReconstructor().reconstruct(disguised),
        )
        assert kalman < 0.6 * ndr

    def test_beats_per_channel_wiener_on_coupled_system(self):
        """Cross-channel coupling is invisible to the per-channel
        smoother; the joint state-space model exploits it."""
        series, disguised, _ = _coupled_var_case(seed=3)
        kalman = root_mean_square_error(
            series, KalmanSmootherReconstructor().reconstruct(disguised)
        )
        wiener = root_mean_square_error(
            series,
            WienerSmootherReconstructor(window=21).reconstruct(disguised),
        )
        assert kalman < wiener

    def test_matches_wiener_on_diagonal_system(self):
        """Without coupling the two attacks model the same process."""
        generator = VectorAutoregressiveGenerator(
            0.9, innovation_std=1.0, n_channels=2
        )
        series = generator.sample(4000, rng=5)
        disguised = AdditiveNoiseScheme(std=2.0).disguise(series, rng=6)
        kalman = root_mean_square_error(
            series, KalmanSmootherReconstructor().reconstruct(disguised)
        )
        wiener = root_mean_square_error(
            series,
            WienerSmootherReconstructor(window=41).reconstruct(disguised),
        )
        assert kalman == pytest.approx(wiener, rel=0.1)

    def test_transition_estimate_close_to_truth(self):
        _, disguised, generator = _coupled_var_case(n=20000, seed=7)
        result = KalmanSmootherReconstructor().reconstruct(disguised)
        np.testing.assert_allclose(
            result.details["transition"],
            generator.transition,
            atol=0.08,
        )

    def test_stability_cap_applied(self):
        # Near-unit-root process: the estimate must stay stable.
        generator = VectorAutoregressiveGenerator(
            0.995, innovation_std=1.0, n_channels=1
        )
        series = generator.sample(500, rng=8)
        disguised = AdditiveNoiseScheme(std=3.0).disguise(series, rng=9)
        attack = KalmanSmootherReconstructor(max_spectral_radius=0.99)
        result = attack.reconstruct(disguised)
        assert result.details["spectral_radius"] <= 0.99 + 1e-9
        assert np.all(np.isfinite(result.estimate))

    def test_estimate_shape_and_mean_restored(self):
        generator = VectorAutoregressiveGenerator(
            0.8, innovation_std=1.0, n_channels=3
        )
        series = generator.sample(800, rng=10) + 50.0
        disguised = AdditiveNoiseScheme(std=2.0).disguise(series, rng=11)
        result = KalmanSmootherReconstructor().reconstruct(disguised)
        assert result.estimate.shape == series.shape
        np.testing.assert_allclose(
            result.estimate.mean(axis=0), np.full(3, 50.0), atol=1.0
        )

    def test_white_data_shrinks_like_udr(self):
        """No serial structure: the smoother reduces to static shrinkage."""
        rng = np.random.default_rng(12)
        white = rng.normal(0.0, 3.0, size=(3000, 1))
        disguised = AdditiveNoiseScheme(std=2.0).disguise(white, rng=13)
        result = KalmanSmootherReconstructor().reconstruct(disguised)
        rmse = root_mean_square_error(white, result)
        # Static shrinkage bound: sqrt(9*4/13).
        assert rmse == pytest.approx(np.sqrt(36.0 / 13.0), rel=0.08)

    def test_needs_minimum_length(self):
        disguised = AdditiveNoiseScheme(std=1.0).disguise(
            np.zeros((3, 2)) + np.arange(3)[:, None], rng=14
        )
        with pytest.raises(ValidationError, match="at least 4"):
            KalmanSmootherReconstructor().reconstruct(disguised)

    def test_radius_parameter_validated(self):
        with pytest.raises(ValidationError):
            KalmanSmootherReconstructor(max_spectral_radius=1.0)

    def test_method_name(self):
        series, disguised, _ = _coupled_var_case(n=100, seed=15)
        result = KalmanSmootherReconstructor().reconstruct(disguised)
        assert result.method == "Kalman"

    def test_tracing_does_not_perturb_the_estimate(self):
        rng = np.random.default_rng(3)
        series = np.cumsum(rng.normal(size=(80, 2)), axis=0) * 0.1
        disguised = AdditiveNoiseScheme(std=1.0).disguise(series, rng=4)
        attack = KalmanSmootherReconstructor()
        plain = attack.reconstruct(disguised).estimate
        with trace.recording():
            traced = attack.reconstruct(disguised).estimate
        np.testing.assert_array_equal(plain, traced)

    def test_traced_smoothing_opens_no_span_and_counts_each_inverse(self):
        _, disguised, _ = _coupled_var_case(n=50, seed=21)
        recorder = Recorder()
        with trace.recording(recorder):
            KalmanSmootherReconstructor().reconstruct(disguised)
        # The caller's span times the attack; the smoother adds none.
        assert recorder.roots == []
        # One inverse to identify the transition, one per forward step,
        # one per backward step.
        assert recorder.counters["linalg.psd_inverse.calls"] == 1 + 50 + 49


def _batch_posterior_mean(observations, transition, state_cov, noise_cov):
    """E[x | y] for a stationary VAR(1) seen through additive noise,
    solved as one dense Gaussian conditioning over all time steps."""
    n, m = observations.shape
    prior = np.empty((n * m, n * m))
    power = [np.eye(m)]
    for _ in range(n - 1):
        power.append(transition @ power[-1])
    for t in range(n):
        for s in range(t + 1):
            block = power[t - s] @ state_cov
            prior[t * m:(t + 1) * m, s * m:(s + 1) * m] = block
            prior[s * m:(s + 1) * m, t * m:(t + 1) * m] = block.T
    observed = prior + np.kron(np.eye(n), noise_cov)
    mean = prior @ np.linalg.solve(observed, observations.ravel())
    return mean.reshape(n, m)


class TestRtsRecursion:
    @pytest.mark.parametrize(
        "transition",
        [
            np.array([[0.6]]),
            np.array([[0.85, 0.3], [0.0, 0.9]]),
            np.array([[0.5, 0.1, 0.0], [-0.2, 0.4, 0.1], [0.0, 0.3, 0.7]]),
        ],
        ids=["m1", "m2-coupled", "m3"],
    )
    def test_smoothed_means_equal_the_batch_posterior(self, transition):
        # With the true model plugged in, the RTS means are the exact
        # Gaussian posterior mean; the backward pass needs no smoothed
        # covariance to reach it.
        m = transition.shape[0]
        process_cov = np.eye(m) + 0.2 * np.ones((m, m))
        state_cov = solve_discrete_lyapunov(transition, process_cov)
        noise_cov = 1.5 * np.eye(m)
        rng = np.random.default_rng(m)
        observations = rng.normal(size=(30, m)) * 2.0
        smoothed = KalmanSmootherReconstructor._rts_smooth(
            observations, transition, process_cov, state_cov, noise_cov
        )
        expected = _batch_posterior_mean(
            observations, transition, state_cov, noise_cov
        )
        np.testing.assert_allclose(smoothed, expected, rtol=1e-8, atol=1e-10)
