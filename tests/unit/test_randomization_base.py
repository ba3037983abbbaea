"""Unit tests for repro.randomization.base."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.randomization.base import DisguisedDataset, NoiseModel


def _iid_model(m=3, variance=4.0):
    return NoiseModel(
        covariance=variance * np.eye(m), mean=np.zeros(m), family="gaussian"
    )


class TestNoiseModel:
    def test_dim(self):
        assert _iid_model(5).dim == 5

    def test_is_isotropic_true_for_scaled_identity(self):
        assert _iid_model().is_isotropic

    def test_is_isotropic_false_for_unequal_variances(self):
        model = NoiseModel(
            covariance=np.diag([1.0, 2.0]), mean=np.zeros(2)
        )
        assert not model.is_isotropic

    def test_is_isotropic_false_for_correlated(self):
        covariance = np.array([[1.0, 0.5], [0.5, 1.0]])
        model = NoiseModel(covariance=covariance, mean=np.zeros(2))
        assert not model.is_isotropic

    def test_is_isotropic_tolerates_round_off(self):
        # sigma^2 * I assembled in floating point, e.g. as Q (sigma^2 I) Q^T,
        # differs from it in the last bits; it is still i.i.d. noise.
        variances = [4.0, np.nextafter(4.0, 5.0), np.nextafter(4.0, 3.0)]
        covariance = np.diag(variances)
        covariance[0, 1] = covariance[1, 0] = 1e-16
        model = NoiseModel(covariance=covariance, mean=np.zeros(3))
        assert model.is_isotropic
        assert model.scalar_variance == pytest.approx(4.0)

    def test_is_isotropic_false_for_small_real_variance_gap(self):
        model = NoiseModel(
            covariance=np.diag([1.0, 1.0 + 1e-6]), mean=np.zeros(2)
        )
        assert not model.is_isotropic

    def test_scalar_variance(self):
        assert _iid_model(variance=9.0).scalar_variance == pytest.approx(9.0)

    def test_scalar_variance_rejected_for_correlated(self):
        covariance = np.array([[1.0, 0.5], [0.5, 1.0]])
        model = NoiseModel(covariance=covariance, mean=np.zeros(2))
        with pytest.raises(ValidationError, match="not isotropic"):
            model.scalar_variance

    def test_covariance_symmetrized(self):
        lightly_asymmetric = np.array([[1.0, 0.3 + 1e-12], [0.3, 1.0]])
        model = NoiseModel(covariance=lightly_asymmetric, mean=np.zeros(2))
        np.testing.assert_array_equal(model.covariance, model.covariance.T)

    def test_rejects_mean_length_mismatch(self):
        with pytest.raises(ValidationError):
            NoiseModel(covariance=np.eye(2), mean=np.zeros(3))

    def test_rejects_rectangular_covariance(self):
        with pytest.raises(ValidationError):
            NoiseModel(covariance=np.zeros((2, 3)), mean=np.zeros(2))


class TestDisguisedDataset:
    def _build(self, n=4, m=3):
        original = np.arange(n * m, dtype=float).reshape(n, m)
        noise = np.ones((n, m))
        return DisguisedDataset(
            disguised=original + noise,
            noise_model=_iid_model(m),
            original=original,
            noise=noise,
        )

    def test_shapes(self):
        dataset = self._build()
        assert dataset.n_records == 4
        assert dataset.n_attributes == 3

    def test_additive_consistency(self):
        dataset = self._build()
        np.testing.assert_array_equal(
            dataset.disguised, dataset.original + dataset.noise
        )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError, match="share one shape"):
            DisguisedDataset(
                disguised=np.zeros((4, 3)),
                noise_model=_iid_model(3),
                original=np.zeros((5, 3)),
                noise=np.zeros((4, 3)),
            )

    def test_rejects_noise_model_dim_mismatch(self):
        with pytest.raises(ValidationError, match="attributes"):
            DisguisedDataset(
                disguised=np.zeros((4, 3)),
                noise_model=_iid_model(2),
                original=np.zeros((4, 3)),
                noise=np.zeros((4, 3)),
            )

    def test_repr_mentions_family(self):
        assert "gaussian" in repr(self._build())
