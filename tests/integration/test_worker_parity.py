"""Worker-count parity: the pool is bit-identical to the in-process run.

Randomized (but seeded) grids of small ExperimentSpecs run in process
and on 1, 2 and 4 workers.  The bar is *bit* equality — the aggregated
payloads match exactly, and every worker count writes exactly the same
set of cache keys, so a cache populated at one worker count is a
full-hit warm start for every other.
"""

import numpy as np
import pytest

from repro.api import run_spec
from repro.api.spec import ExperimentSpec
from repro.engine import Engine, Executor, ResultCache

pytestmark = pytest.mark.slow

#: Worker counts compared to the in-process reference.  Counts beyond
#: the machine's core count still exercise the dispatch path —
#: determinism cannot depend on cores.
WORKER_COUNTS = [1, 2, 4]

_ATTACK_POOL = [
    ("UDR", {"kind": "udr"}),
    ("PCA-DR", {"kind": "pca-dr"}),
    ("BE-DR", {"kind": "be-dr"}),
    ("SF", {"kind": "sf"}),
]


def _random_spec(rng: np.random.Generator, index: int) -> ExperimentSpec:
    """A small randomized component-mode spec (seeded, so reproducible)."""
    n_attacks = int(rng.integers(1, 4))
    chosen = rng.choice(len(_ATTACK_POOL), size=n_attacks, replace=False)
    attacks = {_ATTACK_POOL[i][0]: dict(_ATTACK_POOL[i][1]) for i in chosen}
    spectrum = sorted(
        (float(x) for x in rng.uniform(2.0, 50.0, size=4)), reverse=True
    )
    stds = sorted(float(x) for x in rng.uniform(0.5, 6.0, size=2))
    return ExperimentSpec(
        name=f"parity-{index}",
        dataset={"kind": "synthetic", "spectrum": spectrum},
        scheme={"kind": "additive", "std": stds[0]},
        attacks=attacks,
        params={"n_records": int(rng.integers(60, 140))},
        grid={"scheme.std": stds},
        trials=int(rng.integers(1, 3)),
        seed=int(rng.integers(1, 2**31)),
    )


def _cache_keys(cache_dir) -> set[str]:
    return {path.stem for path in cache_dir.glob("??/*.json")}


def _comparable(result) -> dict:
    """A result payload with wall-clock timing stripped.

    ``stats.duration`` measures the run, not the experiment — it is the
    one field allowed to differ between worker counts.
    """
    payload = result.to_dict()
    payload.get("stats", {}).pop("duration", None)
    return payload


class TestSpecGridParity:
    @pytest.mark.parametrize("spec_index", [0, 1, 2])
    def test_worker_counts_bit_identical_and_same_cache_keys(
        self, tmp_path, spec_index
    ):
        rng = np.random.default_rng(1000 + spec_index)
        spec = _random_spec(rng, spec_index)

        reference_dir = tmp_path / "in-process"
        reference = run_spec(
            spec, engine=Engine(cache=ResultCache(reference_dir))
        )
        reference_payload = _comparable(reference)
        reference_keys = _cache_keys(reference_dir)
        assert reference_keys  # the run actually wrote entries

        for workers in WORKER_COUNTS:
            cache_dir = tmp_path / f"workers-{workers}"
            engine = Engine(
                executor=Executor(workers=workers),
                cache=ResultCache(cache_dir),
            )
            result = run_spec(spec, engine=engine)
            assert _comparable(result) == reference_payload, (
                f"{workers} workers diverged from the in-process run"
            )
            assert _cache_keys(cache_dir) == reference_keys, (
                f"{workers} workers wrote different cache keys"
            )

    @pytest.mark.parametrize("cold_workers, warm_workers", [(1, 2), (4, 1)])
    def test_cache_warm_start_across_worker_counts(
        self, tmp_path, cold_workers, warm_workers
    ):
        spec = _random_spec(np.random.default_rng(77), 99)
        cache = ResultCache(tmp_path / "shared")
        cold = run_spec(
            spec, engine=Engine(Executor(workers=cold_workers), cache=cache)
        )
        warm = run_spec(
            spec, engine=Engine(Executor(workers=warm_workers), cache=cache)
        )
        cold_payload = _comparable(cold)
        warm_payload = _comparable(warm)
        # The warm start must be a full hit: every job came from cache.
        assert warm_payload["stats"].pop("cached") == 2
        assert cold_payload["stats"].pop("cached") == 0
        assert warm_payload == cold_payload
