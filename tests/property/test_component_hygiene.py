"""Hygiene contracts every registered component must meet.

The contract and round-trip suites check what a component computes;
this suite checks the properties that make its results a function of
(spec, seed) alone, over the same representative specs:

* drawing, disguising or reconstructing leaves NumPy's global RNG and
  the ``random`` module's state untouched, so no result depends on
  what ran before it in the same process;
* a component survives a pickle round trip with the same spec and the
  same output, so a caller's own process pool can ship it;
* ``from_spec`` is a classmethod on the registered class and agrees
  with ``Registry.create``;
* ``from_spec`` leaves the caller's spec unchanged, and ``to_spec``
  returns a fresh document, so editing one spec cannot change a
  component built from it or the spec it reports next.
"""

import copy
import inspect
import json
import pickle
import random

import numpy as np
import pytest

from component_cases import (
    ATTACK_CASES,
    DATASET_CASES,
    SCHEME_CASES,
    SPECTRUM,
    flatten,
)
from repro.registry import ATTACKS, DATASETS, SCHEMES

N_RECORDS = 40


@pytest.fixture(scope="module")
def original_table():
    from repro.data.synthetic import generate_dataset

    return generate_dataset(spectrum=SPECTRUM, n_records=N_RECORDS, rng=3)


@pytest.fixture(scope="module")
def disguised_table(original_table):
    from repro.randomization.additive import AdditiveNoiseScheme

    return AdditiveNoiseScheme(std=2.0).disguise(original_table.values, rng=4)


def _cases():
    # Each case carries its spec as JSON text, decoded afresh per test, so
    # a component that edits the dict it was built from cannot hide that
    # by having edited the shared case dict in an earlier test.
    return [
        pytest.param(
            registry, case.values[0], json.dumps(case.values[1]),
            id=f"{label}-{case.id}",
        )
        for label, registry, cases in (
            ("scheme", SCHEMES, SCHEME_CASES),
            ("attack", ATTACKS, ATTACK_CASES),
            ("dataset", DATASETS, DATASET_CASES),
        )
        for case in flatten(cases)
    ]


def _exercise(registry, component, original_table, disguised_table):
    """The component's main operation under a fixed seed, as an array."""
    if registry is SCHEMES:
        published = component.disguise(
            original_table.values, rng=np.random.default_rng(1)
        )
        return published.disguised
    if registry is ATTACKS:
        return component.reconstruct(disguised_table).estimate
    sample = component.sample(25, rng=np.random.default_rng(9))
    return np.asarray(getattr(sample, "values", sample))


def _overwrite_leaves(document):
    """Replace every leaf of a spec, except its ``kind``, in place."""
    items = (
        document.items() if isinstance(document, dict) else enumerate(document)
    )
    for key, value in list(items):
        if isinstance(value, (dict, list)):
            _overwrite_leaves(value)
        elif key != "kind":
            document[key] = "overwritten"


@pytest.mark.parametrize("registry,kind,spec_text", _cases())
class TestComponentHygiene:
    def test_global_random_state_is_untouched(
        self, registry, kind, spec_text, original_table, disguised_table
    ):
        spec = json.loads(spec_text)
        component = registry.create(spec)
        np.random.seed(12345)
        random.seed(12345)
        _exercise(registry, component, original_table, disguised_table)
        numpy_next = np.random.random_sample(4)
        python_next = [random.random() for _ in range(4)]
        np.random.seed(12345)
        random.seed(12345)
        np.testing.assert_array_equal(numpy_next, np.random.random_sample(4))
        assert python_next == [random.random() for _ in range(4)]

    def test_pickle_round_trip_keeps_spec_and_output(
        self, registry, kind, spec_text, original_table, disguised_table
    ):
        spec = json.loads(spec_text)
        component = registry.create(spec)
        restored = pickle.loads(pickle.dumps(component))
        assert type(restored) is type(component)
        assert restored.to_spec() == component.to_spec()
        np.testing.assert_array_equal(
            _exercise(registry, restored, original_table, disguised_table),
            _exercise(registry, component, original_table, disguised_table),
        )

    def test_from_spec_is_a_classmethod_agreeing_with_create(
        self, registry, kind, spec_text
    ):
        spec = json.loads(spec_text)
        cls = registry.get(kind)
        assert isinstance(inspect.getattr_static(cls, "from_spec"), classmethod)
        built = cls.from_spec(copy.deepcopy(spec))
        assert type(built) is cls
        assert built.to_spec() == registry.create(spec).to_spec()

    def test_from_spec_leaves_the_callers_spec_unchanged(
        self, registry, kind, spec_text
    ):
        spec = json.loads(spec_text)
        document = copy.deepcopy(spec)
        component = registry.create(document)
        assert document == spec
        _overwrite_leaves(document)
        assert component.to_spec() == registry.create(spec).to_spec()

    def test_to_spec_returns_a_fresh_document(
        self, registry, kind, spec_text
    ):
        spec = json.loads(spec_text)
        component = registry.create(spec)
        reported = component.to_spec()
        expected = json.loads(json.dumps(reported))
        _overwrite_leaves(reported)
        assert component.to_spec() == expected
