"""Property tests: spec round-trips behave identically for every component.

For each registered scheme, attack, and dataset generator, a
representative instance is serialized with ``to_spec`` and rebuilt with
``from_spec``; under a fixed seed the rebuilt component must behave
*identically* (same noise draws, same reconstruction, same samples) and
re-serialize to the same spec.  A completeness guard fails the suite
when a newly registered component has no representative in
``component_cases``.
"""

import numpy as np
import pytest

from component_cases import (
    ATTACK_CASES,
    DATASET_CASES,
    SCHEME_CASES,
    SPECTRUM,
    M,
    flatten,
)
from repro.registry import ATTACKS, DATASETS, SCHEMES


class TestRepresentativeCompleteness:
    def test_every_scheme_covered(self):
        assert sorted(SCHEME_CASES) == SCHEMES.names()

    def test_every_attack_covered(self):
        assert sorted(ATTACK_CASES) == ATTACKS.names()

    def test_every_dataset_covered(self):
        assert sorted(DATASET_CASES) == DATASETS.names()


@pytest.mark.parametrize("kind,spec", flatten(SCHEME_CASES))
class TestSchemeRoundTrip:
    def test_spec_round_trip_is_stable(self, kind, spec):
        scheme = SCHEMES.create(spec)
        assert SCHEMES.create(scheme.to_spec()).to_spec() == scheme.to_spec()
        assert scheme.to_spec()["kind"] == kind

    def test_identical_behavior_under_fixed_seed(self, kind, spec):
        first = SCHEMES.create(spec)
        second = SCHEMES.create(first.to_spec())
        assert first.noise_model(M) == second.noise_model(M)
        noise_a = first.sample_noise((30, M), rng=np.random.default_rng(8))
        noise_b = second.sample_noise((30, M), rng=np.random.default_rng(8))
        np.testing.assert_array_equal(noise_a, noise_b)


@pytest.fixture(scope="module")
def disguised_table():
    from repro.data.synthetic import generate_dataset
    from repro.randomization.additive import AdditiveNoiseScheme

    dataset = generate_dataset(spectrum=SPECTRUM, n_records=40, rng=0)
    return AdditiveNoiseScheme(std=2.0).disguise(dataset.values, rng=1)


@pytest.mark.parametrize("kind,spec", flatten(ATTACK_CASES))
class TestAttackRoundTrip:
    def test_spec_round_trip_is_stable(self, kind, spec):
        attack = ATTACKS.create(spec)
        assert ATTACKS.create(attack.to_spec()).to_spec() == attack.to_spec()
        assert attack.to_spec()["kind"] == kind

    def test_identical_reconstruction(self, kind, spec, disguised_table):
        first = ATTACKS.create(spec)
        second = ATTACKS.create(first.to_spec())
        result_a = first.reconstruct(disguised_table)
        result_b = second.reconstruct(disguised_table)
        assert result_a == result_b


@pytest.mark.parametrize("kind,spec", flatten(DATASET_CASES))
class TestDatasetRoundTrip:
    def test_spec_round_trip_is_stable(self, kind, spec):
        generator = DATASETS.create(spec)
        rebuilt = DATASETS.create(generator.to_spec())
        assert rebuilt.to_spec() == generator.to_spec()
        assert generator.to_spec()["kind"] == kind

    def test_identical_samples_under_fixed_seed(self, kind, spec):
        first = DATASETS.create(spec)
        second = DATASETS.create(first.to_spec())
        sample_a = first.sample(25, rng=np.random.default_rng(9))
        sample_b = second.sample(25, rng=np.random.default_rng(9))
        values_a = getattr(sample_a, "values", sample_a)
        values_b = getattr(sample_b, "values", sample_b)
        np.testing.assert_array_equal(values_a, values_b)
