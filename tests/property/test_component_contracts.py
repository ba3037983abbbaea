"""Contract tests every registered component must meet.

The round-trip suite checks that a spec rebuilds an identical
component; this suite checks what the engine and the declarative API
assume of *any* component, over the same representative specs:

* attacks return a finite estimate of the input's shape, are
  deterministic, leave the published table untouched, and give the
  same answer on a :class:`DisguisedDataset` as on the raw
  ``(matrix, noise_model)`` view an adversary holds;
* schemes publish exactly ``original + noise``, draw noise whose
  moments match the noise model they announce, and are reproducible
  from an integer seed;
* dataset generators draw finite tables of the requested size, are
  reproducible from an integer seed and differ across seeds;
* every spec is plain JSON, and a typoed field or a foreign ``kind`` is
  rejected at construction with a :class:`ValidationError`.
"""

import json

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
from repro.exceptions import ValidationError
from repro.registry import ATTACKS, DATASETS, SCHEMES

N_RECORDS = 40


def values_of(sample):
    """The data matrix of a dataset generator's draw."""
    return np.asarray(getattr(sample, "values", sample))


def foreign_kind(kind, registry):
    """A registered key of ``registry`` other than ``kind``."""
    return next(name for name in registry.names() if name != kind)


@pytest.fixture(scope="module")
def disguised_table():
    from repro.data.synthetic import generate_dataset
    from repro.randomization.additive import AdditiveNoiseScheme

    dataset = generate_dataset(spectrum=SPECTRUM, n_records=N_RECORDS, rng=3)
    return AdditiveNoiseScheme(std=2.0).disguise(dataset.values, rng=4)


@pytest.mark.parametrize("kind,spec", flatten(ATTACK_CASES))
class TestAttackContract:
    def test_estimate_has_input_shape_and_is_finite(
        self, kind, spec, disguised_table
    ):
        estimate = ATTACKS.create(spec).reconstruct(disguised_table).estimate
        assert estimate.shape == disguised_table.disguised.shape
        assert np.all(np.isfinite(estimate))

    def test_repeated_runs_agree(self, kind, spec, disguised_table):
        attack = ATTACKS.create(spec)
        assert attack.reconstruct(disguised_table) == attack.reconstruct(
            disguised_table
        )

    def test_published_table_is_not_modified(self, kind, spec, disguised_table):
        before = disguised_table.disguised.copy()
        ATTACKS.create(spec).reconstruct(
            disguised_table.disguised.copy(), disguised_table.noise_model
        )
        ATTACKS.create(spec).reconstruct(disguised_table)
        np.testing.assert_array_equal(disguised_table.disguised, before)

    def test_raw_view_matches_dataset_view(self, kind, spec, disguised_table):
        attack = ATTACKS.create(spec)
        from_dataset = attack.reconstruct(disguised_table).estimate
        from_matrix = attack.reconstruct(
            disguised_table.disguised.copy(), disguised_table.noise_model
        ).estimate
        np.testing.assert_allclose(from_matrix, from_dataset, rtol=1e-10, atol=1e-10)

    def test_spec_is_plain_json(self, kind, spec):
        produced = ATTACKS.create(spec).to_spec()
        assert json.loads(json.dumps(produced)) == produced

    def test_unknown_field_rejected(self, kind, spec):
        with pytest.raises(ValidationError, match="unknown field"):
            ATTACKS.get(kind).from_spec({**spec, "not_a_field": 1})

    def test_foreign_kind_rejected(self, kind, spec):
        other = foreign_kind(kind, ATTACKS)
        with pytest.raises(ValidationError, match="does not match"):
            ATTACKS.get(kind).from_spec({**spec, "kind": other})


@pytest.mark.parametrize("kind,spec", flatten(SCHEME_CASES))
class TestSchemeContract:
    def test_disguise_adds_the_drawn_noise(self, kind, spec):
        original = np.arange(N_RECORDS * M, dtype=float).reshape(N_RECORDS, M)
        kept = original.copy()
        disguised = SCHEMES.create(spec).disguise(original, rng=5)
        np.testing.assert_array_equal(original, kept)
        np.testing.assert_array_equal(disguised.original, kept)
        np.testing.assert_array_equal(
            disguised.disguised, disguised.original + disguised.noise
        )

    def test_noise_has_the_requested_shape(self, kind, spec):
        noise = SCHEMES.create(spec).sample_noise((N_RECORDS, M), rng=6)
        assert noise.shape == (N_RECORDS, M)
        assert np.all(np.isfinite(noise))

    def test_integer_seed_is_reproducible(self, kind, spec):
        scheme = SCHEMES.create(spec)
        np.testing.assert_array_equal(
            scheme.sample_noise((N_RECORDS, M), rng=7),
            scheme.sample_noise((N_RECORDS, M), rng=7),
        )

    def test_noise_moments_match_the_announced_model(self, kind, spec):
        scheme = SCHEMES.create(spec)
        model = scheme.noise_model(M)
        noise = scheme.sample_noise((20000, M), rng=8)
        scale = np.sqrt(np.max(np.diag(model.covariance)))
        np.testing.assert_allclose(noise.mean(axis=0), 0.0, atol=0.05 * scale)
        np.testing.assert_allclose(
            np.cov(noise, rowvar=False),
            model.covariance,
            atol=0.05 * scale**2,
        )

    def test_spec_is_plain_json(self, kind, spec):
        produced = SCHEMES.create(spec).to_spec()
        assert json.loads(json.dumps(produced)) == produced

    def test_unknown_field_rejected(self, kind, spec):
        with pytest.raises(ValidationError, match="unknown field"):
            SCHEMES.get(kind).from_spec({**spec, "not_a_field": 1})

    def test_foreign_kind_rejected(self, kind, spec):
        other = foreign_kind(kind, SCHEMES)
        with pytest.raises(ValidationError, match="does not match"):
            SCHEMES.get(kind).from_spec({**spec, "kind": other})


@pytest.mark.parametrize("kind,spec", flatten(DATASET_CASES))
class TestDatasetContract:
    def test_sample_has_requested_rows_and_is_finite(self, kind, spec):
        values = values_of(DATASETS.create(spec).sample(N_RECORDS, rng=9))
        assert values.ndim == 2
        assert values.shape[0] == N_RECORDS
        assert np.all(np.isfinite(values))

    def test_width_is_independent_of_row_count(self, kind, spec):
        generator = DATASETS.create(spec)
        small = values_of(generator.sample(5, rng=10))
        large = values_of(generator.sample(50, rng=10))
        assert small.shape[1] == large.shape[1]

    def test_integer_seed_is_reproducible(self, kind, spec):
        generator = DATASETS.create(spec)
        np.testing.assert_array_equal(
            values_of(generator.sample(N_RECORDS, rng=11)),
            values_of(generator.sample(N_RECORDS, rng=11)),
        )

    def test_different_seeds_differ(self, kind, spec):
        generator = DATASETS.create(spec)
        first = values_of(generator.sample(N_RECORDS, rng=12))
        second = values_of(generator.sample(N_RECORDS, rng=13))
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("n_records", [0, -3, 2.5, True])
    def test_invalid_row_count_rejected(self, kind, spec, n_records):
        with pytest.raises(ValidationError):
            DATASETS.create(spec).sample(n_records, rng=14)

    def test_spec_is_plain_json(self, kind, spec):
        produced = DATASETS.create(spec).to_spec()
        assert json.loads(json.dumps(produced)) == produced

    def test_unknown_field_rejected(self, kind, spec):
        with pytest.raises(ValidationError, match="unknown field"):
            DATASETS.get(kind).from_spec({**spec, "not_a_field": 1})

    def test_foreign_kind_rejected(self, kind, spec):
        other = foreign_kind(kind, DATASETS)
        with pytest.raises(ValidationError, match="does not match"):
            DATASETS.get(kind).from_spec({**spec, "kind": other})
