"""Unit tests for repro.linalg.psd."""

import numpy as np
import pytest

from repro.exceptions import NotPositiveDefiniteError
from repro.linalg.psd import (
    cholesky_with_jitter,
    is_positive_semidefinite,
    nearest_psd,
    psd_inverse,
)
from repro.telemetry import trace
from repro.telemetry.recorder import Recorder


def _indefinite_matrix():
    return np.array(
        [
            [1.0, 0.9, 0.0],
            [0.9, 1.0, 0.9],
            [0.0, 0.9, 0.2],
        ]
    )


class TestIsPositiveSemidefinite:
    def test_identity(self):
        assert is_positive_semidefinite(np.eye(3))

    def test_zero_matrix(self):
        assert is_positive_semidefinite(np.zeros((3, 3)))

    def test_indefinite(self):
        assert not is_positive_semidefinite(_indefinite_matrix())

    def test_tiny_negative_within_tolerance(self):
        matrix = np.eye(2)
        matrix[1, 1] = -1e-14
        assert is_positive_semidefinite(matrix)


class TestNearestPsd:
    def test_already_psd_returned_unchanged(self):
        matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(nearest_psd(matrix), matrix)

    def test_repair_produces_psd(self):
        repaired = nearest_psd(_indefinite_matrix())
        assert is_positive_semidefinite(repaired)

    def test_repair_is_frobenius_projection(self):
        # Clipping eigenvalues at zero is the nearest PSD matrix; any
        # further perturbation must increase the Frobenius distance.
        matrix = _indefinite_matrix()
        repaired = nearest_psd(matrix)
        base_distance = np.linalg.norm(matrix - repaired, "fro")
        rng = np.random.default_rng(0)
        for _ in range(10):
            bump = rng.standard_normal((3, 3)) * 0.05
            candidate = repaired + (bump + bump.T) / 2.0
            if is_positive_semidefinite(candidate):
                distance = np.linalg.norm(matrix - candidate, "fro")
                assert distance >= base_distance - 1e-9

    def test_floor_gives_positive_definite(self):
        repaired = nearest_psd(_indefinite_matrix(), floor=0.1)
        values = np.linalg.eigvalsh(repaired)
        assert values.min() >= 0.1 - 1e-9

    def test_negative_floor_rejected(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            nearest_psd(np.eye(2), floor=-1.0)


class TestCholeskyWithJitter:
    def test_plain_cholesky_when_pd(self):
        matrix = np.array([[4.0, 1.0], [1.0, 3.0]])
        lower = cholesky_with_jitter(matrix)
        np.testing.assert_allclose(lower @ lower.T, matrix, atol=1e-12)

    def test_singular_psd_gets_jitter(self):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        lower = cholesky_with_jitter(matrix)
        np.testing.assert_allclose(lower @ lower.T, matrix, atol=1e-6)

    def test_genuinely_indefinite_raises(self):
        matrix = np.diag([1.0, -5.0])
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_with_jitter(matrix, max_tries=3)

    def test_returns_lower_triangular(self):
        lower = cholesky_with_jitter(np.eye(3) * 2.0)
        assert np.allclose(lower, np.tril(lower))


class TestCholeskyCounters:
    def _traced(self, matrix, **kwargs):
        recorder = Recorder()
        with trace.recording(recorder):
            factor = cholesky_with_jitter(matrix, **kwargs)
        return factor, recorder.counters

    def test_plain_factor_counts_one_call_and_no_retry(self):
        _, counters = self._traced(np.eye(3))
        assert counters["linalg.cholesky.calls"] == 1
        assert "linalg.cholesky.retries" not in counters

    def test_one_jitter_retry_is_counted(self):
        # Rank one with a large initial jitter: the plain factorization
        # fails and the first jittered attempt succeeds.
        _, counters = self._traced(np.ones((4, 4)), initial_jitter=1e-6)
        assert counters["linalg.cholesky.calls"] == 1
        assert counters["linalg.cholesky.retries"] == 1

    def test_exhausted_budget_counts_every_retry(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with pytest.raises(NotPositiveDefiniteError):
                cholesky_with_jitter(_indefinite_matrix(), max_tries=3)
        assert recorder.counters["linalg.cholesky.calls"] == 1
        assert recorder.counters["linalg.cholesky.retries"] == 2

    @pytest.mark.parametrize("dim", [1, 5, 20])
    def test_positive_definite_input_needs_no_retry(self, dim):
        rng = np.random.default_rng(dim)
        base = rng.normal(size=(dim, dim))
        factor, counters = self._traced(base @ base.T + dim * np.eye(dim))
        assert counters == {"linalg.cholesky.calls": 1}
        np.testing.assert_allclose(
            factor @ factor.T, base @ base.T + dim * np.eye(dim)
        )

    def test_zero_matrix_falls_back_to_unit_scale(self):
        # mean(diag) is 0, so the jitter is scaled by 1: the first
        # jittered attempt factors 1e-12 * I.
        factor, counters = self._traced(np.zeros((3, 3)))
        assert counters["linalg.cholesky.retries"] == 1
        np.testing.assert_allclose(factor, np.sqrt(1e-12) * np.eye(3))

    def test_counters_accumulate_across_calls(self):
        recorder = Recorder()
        with trace.recording(recorder):
            cholesky_with_jitter(np.eye(2))
            cholesky_with_jitter(np.ones((4, 4)), initial_jitter=1e-6)
            cholesky_with_jitter(np.zeros((2, 2)))
        assert recorder.counters["linalg.cholesky.calls"] == 3
        assert recorder.counters["linalg.cholesky.retries"] == 2

    def test_single_try_budget_counts_the_call_and_no_retry(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with pytest.raises(NotPositiveDefiniteError):
                cholesky_with_jitter(_indefinite_matrix(), max_tries=1)
        assert recorder.counters == {"linalg.cholesky.calls": 1}

    def test_opens_no_span_of_its_own(self):
        recorder = Recorder()
        with trace.recording(recorder):
            with trace.span("caller"):
                cholesky_with_jitter(np.ones((3, 3)))
        (root,) = recorder.roots
        assert root.name == "caller"
        assert root.children == []
        assert "convergence" not in root.attrs

    def test_tracing_does_not_perturb_the_factor(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 6))
        nearly = base @ base.T - 1e-9 * np.eye(6)
        plain = cholesky_with_jitter(nearly)
        traced, _ = self._traced(nearly)
        np.testing.assert_array_equal(plain, traced)


class TestPsdInverse:
    def test_matches_plain_inverse_when_well_conditioned(self):
        matrix = np.array([[4.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(
            psd_inverse(matrix), np.linalg.inv(matrix), atol=1e-10
        )

    def test_near_singular_is_bounded(self):
        matrix = np.diag([1.0, 1e-16])
        inverse = psd_inverse(matrix, floor=1e-10)
        assert np.all(np.isfinite(inverse))
        assert inverse[1, 1] <= 1e10 + 1.0

    def test_result_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        matrix = a @ a.T + np.eye(5)
        inverse = psd_inverse(matrix)
        np.testing.assert_allclose(inverse, inverse.T, atol=1e-12)

    def test_no_positive_eigenvalues_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            psd_inverse(-np.eye(2))

    def test_floor_must_be_positive(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            psd_inverse(np.eye(2), floor=0.0)
