"""Unit tests for the Section 8 noise designer."""

import dataclasses

import numpy as np
import pytest

from repro.core import defense
from repro.core.defense import NoiseDesigner, design_noise_spectrum
from repro.data.covariance_builder import CovarianceModel
from repro.data.spectra import two_level_spectrum
from repro.exceptions import ValidationError
from repro.randomization.base import NoiseModel


def _data_model():
    spectrum = two_level_spectrum(
        10, 5, total_variance=1000.0, non_principal_value=4.0
    )
    return CovarianceModel.from_spectrum(spectrum, rng=0)


class TestDesignNoiseSpectrum:
    def test_profile_zero_is_proportional(self):
        data = np.array([80.0, 15.0, 5.0])
        designed = design_noise_spectrum(
            data, noise_power=10.0, profile=0.0
        )
        np.testing.assert_allclose(designed, data * (10.0 / 100.0))

    def test_profile_one_is_flat(self):
        data = np.array([80.0, 15.0, 5.0])
        designed = design_noise_spectrum(
            data, noise_power=30.0, profile=1.0
        )
        np.testing.assert_allclose(designed, [10.0, 10.0, 10.0])

    def test_profile_two_is_reversed(self):
        data = np.array([80.0, 15.0, 5.0])
        designed = design_noise_spectrum(
            data, noise_power=100.0, profile=2.0
        )
        np.testing.assert_allclose(designed, [5.0, 15.0, 80.0])

    def test_power_always_preserved(self):
        data = np.array([400.0, 400.0, 4.0, 4.0])
        for profile in (0.0, 0.3, 1.0, 1.6, 2.0):
            designed = design_noise_spectrum(
                data, noise_power=100.0, profile=profile
            )
            assert designed.sum() == pytest.approx(100.0)

    def test_rejects_out_of_range_profile(self):
        with pytest.raises(ValidationError):
            design_noise_spectrum([1.0, 2.0], noise_power=1.0, profile=2.5)

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValidationError):
            design_noise_spectrum([1.0, -1.0], noise_power=1.0, profile=0.5)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValidationError):
            design_noise_spectrum([1.0, 2.0], noise_power=0.0, profile=0.5)


class TestNoiseDesigner:
    def test_profile_zero_gives_zero_dissimilarity(self):
        designer = NoiseDesigner(_data_model(), noise_power=250.0)
        designed = designer.design(0.0)
        assert designed.dissimilarity == pytest.approx(0.0, abs=1e-9)

    def test_profile_one_gives_independent_noise(self):
        designer = NoiseDesigner(_data_model(), noise_power=250.0)
        designed = designer.design(1.0)
        np.testing.assert_allclose(
            designed.scheme.covariance, 25.0 * np.eye(10), atol=1e-9
        )

    def test_dissimilarity_monotone_along_path(self):
        designer = NoiseDesigner(_data_model(), noise_power=250.0)
        sweep = designer.sweep([0.0, 0.5, 1.0, 1.5, 2.0])
        dissimilarities = [d.dissimilarity for d in sweep]
        assert all(
            later >= earlier - 1e-12
            for earlier, later in zip(dissimilarities, dissimilarities[1:])
        )

    def test_noise_power_constant_across_sweep(self):
        designer = NoiseDesigner(_data_model(), noise_power=250.0)
        for designed in designer.sweep([0.0, 0.7, 1.3, 2.0]):
            assert designed.scheme.total_power == pytest.approx(250.0)

    def test_noise_uses_data_eigenvectors(self):
        model = _data_model()
        designer = NoiseDesigner(model, noise_power=250.0)
        designed = designer.design(0.5)
        # The noise covariance must diagonalize in the data's eigenbasis.
        q = model.eigenvectors
        off_diagonal = q.T @ designed.scheme.covariance @ q
        off_diagonal -= np.diag(np.diag(off_diagonal))
        assert np.abs(off_diagonal).max() < 1e-9

    def test_rejects_non_model(self):
        with pytest.raises(ValidationError):
            NoiseDesigner(np.eye(3), noise_power=1.0)

    def test_rejects_bad_power(self):
        with pytest.raises(ValidationError):
            NoiseDesigner(_data_model(), noise_power=-1.0)


class TestDesignedNoiseScheme:
    def test_design_builds_no_scheme(self, monkeypatch):
        built = []

        class Counting(defense.CorrelatedNoiseScheme):
            def __init__(self, covariance):
                built.append(covariance)
                super().__init__(covariance)

        monkeypatch.setattr(defense, "CorrelatedNoiseScheme", Counting)
        designer = NoiseDesigner(_data_model(), noise_power=250.0)
        designed = designer.design(0.5)
        assert designed.dissimilarity >= 0.0
        assert built == []
        assert designed.scheme.total_power == pytest.approx(250.0)
        assert len(built) == 1

    def test_scheme_is_built_once(self):
        designed = NoiseDesigner(_data_model(), noise_power=250.0).design(1.2)
        assert designed.scheme is designed.scheme

    @pytest.mark.parametrize("profile", [0.0, 0.5, 1.0, 2.0])
    def test_scheme_carries_the_designed_covariance(self, profile):
        # Figure 4's task builds its noise model straight from the
        # designed covariance; it must be the one the scheme announces.
        designed = NoiseDesigner(_data_model(), noise_power=250.0).design(
            profile
        )
        announced = designed.scheme.noise_model(10)
        direct = NoiseModel(designed.noise_model.matrix, np.zeros(10))
        np.testing.assert_array_equal(
            announced.covariance, direct.covariance
        )
        np.testing.assert_array_equal(announced.mean, direct.mean)
        assert announced.family == direct.family

    def test_designed_noise_stays_frozen(self):
        designed = NoiseDesigner(_data_model(), noise_power=250.0).design(0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            designed.profile = 1.0
