"""Unit tests for MASK randomized-response basket mining."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mining.association import AprioriMiner, FrequentItemset, MaskScheme


def _planted_baskets(n=20000, seed=0, supports=(0.4, 0.3, 0.2, 0.05)):
    """Baskets with a planted frequent pair {0, 1}.

    Item 0 appears w.p. 0.5; item 1 copies item 0 w.p. 0.9 (strong
    association); one independent item follows per entry of
    ``supports`` (6 items by default).
    """
    rng = np.random.default_rng(seed)
    baskets = np.zeros((n, 2 + len(supports)), dtype=np.int8)
    baskets[:, 0] = rng.random(n) < 0.5
    copy = rng.random(n) < 0.9
    baskets[:, 1] = np.where(copy, baskets[:, 0], rng.random(n) < 0.5)
    for item, support in enumerate(supports, start=2):
        baskets[:, item] = rng.random(n) < support
    return baskets


class TestMaskScheme:
    def test_channel_matrix_single_bit(self):
        scheme = MaskScheme(0.9)
        np.testing.assert_allclose(
            scheme.channel_matrix(1), [[0.9, 0.1], [0.1, 0.9]]
        )

    def test_channel_matrix_columns_sum_to_one(self):
        scheme = MaskScheme(0.8)
        for k in (1, 2, 3):
            channel = scheme.channel_matrix(k)
            np.testing.assert_allclose(
                channel.sum(axis=0), np.ones(1 << k)
            )

    def test_disguise_flip_rate(self):
        scheme = MaskScheme(0.8)
        bits = np.ones((50000, 1), dtype=np.int8)
        out = scheme.disguise(bits, rng=0)
        assert out.mean() == pytest.approx(0.8, abs=0.01)

    def test_single_item_support_recovery(self):
        baskets = _planted_baskets()
        scheme = MaskScheme(0.85)
        disguised = scheme.disguise(baskets, rng=1)
        for item in range(6):
            truth = float(baskets[:, item].mean())
            estimate = scheme.estimate_support(disguised, [item])
            assert estimate == pytest.approx(truth, abs=0.03)

    def test_pair_support_recovery(self):
        baskets = _planted_baskets()
        scheme = MaskScheme(0.85)
        disguised = scheme.disguise(baskets, rng=2)
        truth = float(baskets[:, [0, 1]].all(axis=1).mean())
        estimate = scheme.estimate_support(disguised, [0, 1])
        assert estimate == pytest.approx(truth, abs=0.03)

    def test_triple_support_recovery(self):
        baskets = _planted_baskets()
        scheme = MaskScheme(0.9)
        disguised = scheme.disguise(baskets, rng=3)
        truth = float(baskets[:, [0, 1, 2]].all(axis=1).mean())
        estimate = scheme.estimate_support(disguised, [0, 1, 2])
        assert estimate == pytest.approx(truth, abs=0.04)

    def test_estimate_clipped_to_unit_interval(self):
        scheme = MaskScheme(0.6)
        tiny = scheme.disguise(np.zeros((20, 2), dtype=np.int8), rng=4)
        estimate = scheme.estimate_support(tiny, [0, 1])
        assert 0.0 <= estimate <= 1.0

    def test_rejects_half_probability(self):
        with pytest.raises(ValidationError):
            MaskScheme(0.5)

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            MaskScheme(0.9).disguise([[0, 2]])

    def test_rejects_empty_itemset(self):
        scheme = MaskScheme(0.9)
        with pytest.raises(ValidationError):
            scheme.estimate_support(np.zeros((5, 3), dtype=np.int8), [])

    def test_rejects_out_of_range_item(self):
        scheme = MaskScheme(0.9)
        with pytest.raises(ValidationError, match="out of range"):
            scheme.estimate_support(np.zeros((5, 3), dtype=np.int8), [7])


class TestAprioriMiner:
    def test_plain_mining_finds_planted_pair(self):
        baskets = _planted_baskets()
        frequent = AprioriMiner(0.4).mine_plain(baskets)
        itemsets = {fs.items for fs in frequent}
        assert (0,) in itemsets and (1,) in itemsets
        assert (0, 1) in itemsets  # the planted association
        assert (5,) not in itemsets  # support 0.05 < 0.4

    def test_supports_are_exact_for_plain_mining(self):
        baskets = _planted_baskets()
        frequent = AprioriMiner(0.4).mine_plain(baskets)
        by_items = {fs.items: fs.support for fs in frequent}
        assert by_items[(0,)] == pytest.approx(
            float(baskets[:, 0].mean())
        )

    def test_disguised_mining_matches_plain(self):
        baskets = _planted_baskets()
        scheme = MaskScheme(0.9)
        disguised = scheme.disguise(baskets, rng=5)
        plain = {
            fs.items for fs in AprioriMiner(0.35).mine_plain(baskets)
        }
        recovered = {
            fs.items
            for fs in AprioriMiner(0.35).mine_disguised(disguised, scheme)
        }
        assert plain == recovered

    def test_retention_sweep_recovery_and_support_error(self):
        """Across retention p, gentle randomization (p = 0.95) finds
        exactly the plain-data itemsets, and the worst support error at
        the lowest p is no smaller than at the highest."""
        baskets = _planted_baskets(
            n=30000, supports=(0.45, 0.4, 0.35, 0.25, 0.15, 0.05)
        )
        miner = AprioriMiner(0.3, max_size=3)
        truth = {fs.items: fs.support for fs in miner.mine_plain(baskets)}
        worst_error = []
        for seed, p in ((1, 0.95), (5, 0.6)):
            scheme = MaskScheme(p)
            mined = {
                fs.items: fs.support
                for fs in miner.mine_disguised(
                    scheme.disguise(baskets, rng=seed), scheme
                )
            }
            if p == 0.95:
                assert set(mined) == set(truth)
            common = set(mined) & set(truth)
            worst_error.append(
                max(abs(mined[s] - truth[s]) for s in common)
                if common
                else 1.0
            )
        assert worst_error[0] < 0.02
        assert worst_error[-1] >= worst_error[0]

    def test_apriori_prune_respects_downward_closure(self):
        baskets = _planted_baskets()
        frequent = AprioriMiner(0.3).mine_plain(baskets)
        itemsets = {fs.items for fs in frequent}
        for items in itemsets:
            if len(items) > 1:
                for drop in range(len(items)):
                    subset = items[:drop] + items[drop + 1:]
                    assert subset in itemsets

    def test_max_size_cap(self):
        baskets = _planted_baskets()
        frequent = AprioriMiner(0.05, max_size=1).mine_plain(baskets)
        assert max(len(fs) for fs in frequent) == 1

    def test_results_sorted(self):
        baskets = _planted_baskets()
        frequent = AprioriMiner(0.3).mine_plain(baskets)
        keys = [(len(fs.items), fs.items) for fs in frequent]
        assert keys == sorted(keys)

    def test_rejects_non_mask_scheme(self):
        with pytest.raises(ValidationError, match="MaskScheme"):
            AprioriMiner(0.5).mine_disguised(
                np.zeros((5, 2), dtype=np.int8), "scheme"
            )

    def test_rejects_bad_min_support(self):
        with pytest.raises(ValidationError):
            AprioriMiner(0.0)


class TestFrequentItemset:
    def test_items_sorted(self):
        fs = FrequentItemset((3, 1, 2), 0.5)
        assert fs.items == (1, 2, 3)

    def test_len(self):
        assert len(FrequentItemset((1, 2), 0.5)) == 2
