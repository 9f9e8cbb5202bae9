"""Tests for the adaptive Hybrid B+-tree (AHI-BTree)."""

import random

import numpy as np

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.core.budget import MemoryBudget
from repro.core.manager import ManagerConfig


def sorted_pairs(n, seed=0):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10**10), n))
    return [(key, key + 1) for key in keys]


def fast_config(budget=None, **overrides):
    defaults = dict(
        encoding_order=BTREE_ENCODING_ORDER,
        budget=budget or MemoryBudget.unbounded(),
        initial_skip_length=0,
        skip_min=0,
        skip_max=10,
        initial_sample_size=500,
        max_sample_size=500,
        use_bloom_filter=False,
    )
    defaults.update(overrides)
    return ManagerConfig(**defaults)


class TestConstruction:
    def test_bulk_load_starts_cold(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(sorted_pairs(1000), leaf_capacity=32)
        assert tree.encoding_counts() == {LeafEncoding.SUCCINCT: tree.num_leaves}

    def test_encoding_order_compact_to_fast(self):
        assert BTREE_ENCODING_ORDER[0] is LeafEncoding.SUCCINCT
        assert BTREE_ENCODING_ORDER[-1] is LeafEncoding.GAPPED


class TestAdaptation:
    def test_hot_leaves_expand_under_skew(self):
        pairs = sorted_pairs(3000)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=fast_config()
        )
        hot_keys = [key for key, _ in pairs[:50]]
        rng = np.random.default_rng(0)
        for _ in range(3000):
            tree.lookup(hot_keys[rng.integers(0, len(hot_keys))])
        counts = tree.encoding_counts()
        assert counts.get(LeafEncoding.GAPPED, 0) >= 1
        # Cold majority stays succinct.
        assert counts.get(LeafEncoding.SUCCINCT, 0) > counts.get(LeafEncoding.GAPPED, 0)
        tree.verify()

    def test_shifted_workload_compacts_old_hot_set(self):
        pairs = sorted_pairs(3000)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=fast_config()
        )
        first_hot = [key for key, _ in pairs[:40]]
        second_hot = [key for key, _ in pairs[-40:]]
        rng = np.random.default_rng(1)
        for _ in range(2000):
            tree.lookup(first_hot[rng.integers(0, 40)])
        expanded_before = tree.encoding_counts().get(LeafEncoding.GAPPED, 0)
        assert expanded_before >= 1
        for _ in range(4000):
            tree.lookup(second_hot[rng.integers(0, 40)])
        assert tree.manager.counters.compactions >= 1

    def test_lookup_results_survive_migrations(self):
        pairs = sorted_pairs(2000)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=fast_config()
        )
        rng = np.random.default_rng(2)
        reference = dict(pairs)
        keys = [key for key, _ in pairs]
        for _ in range(3000):
            key = keys[min(int(rng.exponential(40)), len(keys) - 1)]
            assert tree.lookup(key) == reference[key]
        tree.verify()


def eager_counts(tree):
    """The manager's (eager expansions, refusals) for ``tree``."""
    counters = tree.manager.counters
    return counters.eager_expansions, counters.eager_expansions_refused


class TestEagerInsertExpansion:
    def test_insert_into_succinct_leaf_expands_it(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(sorted_pairs(500), leaf_capacity=32)
        key = sorted_pairs(500)[100][0] + 1
        tree.insert(key, 42)
        assert tree.manager.counters.eager_expansions == 1
        assert tree.lookup(key) == 42
        tree.verify()

    def test_eagerly_expanded_leaf_registered_for_compaction(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            sorted_pairs(500), leaf_capacity=32, manager_config=fast_config()
        )
        key = sorted_pairs(500)[100][0] + 1
        tree.insert(key, 42)
        expanded = [
            leaf for leaf in tree.leaves() if leaf.encoding is LeafEncoding.GAPPED
        ]
        assert len(expanded) == 1
        assert tree.manager.stats_of(expanded[0]) is not None

    def test_eager_expansion_disabled(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            sorted_pairs(500), leaf_capacity=32, eager_insert_expansion=False
        )
        key = sorted_pairs(500)[100][0] + 1
        tree.insert(key, 42)
        assert tree.manager.counters.eager_expansions == 0
        assert tree.lookup(key) == 42

    def test_eager_expansion_respects_budget(self):
        pairs = sorted_pairs(500)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs,
            leaf_capacity=32,
            manager_config=fast_config(
                budget=MemoryBudget.absolute(1)  # already exceeded
            ),
        )
        tree.insert(pairs[100][0] + 1, 42)
        assert tree.manager.counters.eager_expansions == 0

    def test_tree_within_its_budget_but_past_the_ceiling_refuses(self):
        pairs = sorted_pairs(500)
        size = AdaptiveBPlusTree.bulk_load_adaptive(pairs, leaf_capacity=32).size_bytes()
        budget = MemoryBudget.absolute(int(size / 0.96))  # utilization ~0.96
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=fast_config(budget=budget)
        )
        assert not budget.exceeded(tree.size_bytes(), tree.num_keys)
        assert not tree.manager.has_expansion_headroom()
        tree.insert(pairs[100][0] + 1, 42)
        assert eager_counts(tree) == (0, 1)
        assert tree.encoding_counts() == {LeafEncoding.SUCCINCT: tree.num_leaves}
        assert tree.stats()["eager_expansions_refused"] == 1
        assert "eager_expansions_refused: 1" in tree.describe()

    def test_tree_well_under_the_ceiling_expands_on_first_insert(self):
        pairs = sorted_pairs(500)
        size = AdaptiveBPlusTree.bulk_load_adaptive(pairs, leaf_capacity=32).size_bytes()
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs,
            leaf_capacity=32,
            manager_config=fast_config(budget=MemoryBudget.absolute(2 * size)),
        )
        tree.insert(pairs[100][0] + 1, 42)
        assert eager_counts(tree) == (1, 0)
        assert tree.stats()["eager_expansions"] == 1

    def test_unbounded_tree_expands_every_succinct_leaf_on_first_insert(self):
        pairs = sorted_pairs(500)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(pairs, leaf_capacity=32)
        firsts = [leaf.min_key() for leaf in tree.leaves()]
        for key in firsts:
            tree.insert(key + 1, 7)
        assert tree.manager.counters.eager_expansions == len(firsts) == tree.num_leaves
        assert tree.manager.counters.eager_expansions_refused == 0
        assert tree.encoding_counts() == {LeafEncoding.GAPPED: tree.num_leaves}
        tree.verify()

    def test_empty_tree_under_a_relative_budget_has_no_headroom(self):
        tree = AdaptiveBPlusTree(
            manager_config=fast_config(budget=MemoryBudget.relative(1000.0))
        )
        tree.insert(5, 6)
        assert eager_counts(tree) == (0, 1)
        assert tree.lookup(5) == 6


class TestBudget:
    def test_budget_limits_expansion(self):
        pairs = sorted_pairs(3000)
        base = AdaptiveBPlusTree.bulk_load_adaptive(pairs, leaf_capacity=32)
        budget_bytes = int(base.size_bytes() * 1.2)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs,
            leaf_capacity=32,
            manager_config=fast_config(budget=MemoryBudget.absolute(budget_bytes)),
        )
        rng = np.random.default_rng(3)
        keys = [key for key, _ in pairs]
        for _ in range(5000):
            tree.lookup(keys[rng.integers(0, 400)])
        assert tree.size_bytes() <= budget_bytes * 1.1  # small transient slack

    def test_emptied_tree_under_a_relative_budget_keeps_adapting(self):
        pairs = sorted_pairs(100)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs,
            leaf_capacity=32,
            manager_config=fast_config(
                budget=MemoryBudget.relative(200.0),
                initial_sample_size=20,
                max_sample_size=20,
            ),
        )
        for key, _ in pairs:
            tree.delete(key)
        for _ in range(100):
            assert tree.lookup(pairs[0][0]) is None
        assert tree.manager.counters.adaptation_phases >= 1
        tree.verify()


class TestScanTracking:
    def test_scan_returns_correct_pairs_and_samples(self):
        pairs = sorted_pairs(1000)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=fast_config()
        )
        result = tree.scan(pairs[10][0], 25)
        assert result == pairs[10:35]
        assert tree.manager.counters.sampled > 0

    def test_full_range_scan_samples_every_leaf(self):
        config = ManagerConfig(
            encoding_order=BTREE_ENCODING_ORDER,
            initial_skip_length=0,
            skip_min=0,
            skip_max=5,
            initial_sample_size=10_000,
            use_bloom_filter=False,
        )
        pairs = [(key, key) for key in range(200)]
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=8, manager_config=config
        )
        before = tree.manager.counters.sampled
        assert tree.scan(0, len(pairs)) == pairs
        # Skip 0 -> every leaf the scan visited was sampled and tracked.
        assert tree.manager.counters.sampled - before >= tree.num_leaves

    def test_plain_tree_scan_does_not_track(self):
        pairs = [(key * 2, key) for key in range(100)]
        tree = BPlusTree.bulk_load(pairs, LeafEncoding.GAPPED, leaf_capacity=8)
        assert tree.scan(0, len(pairs)) == pairs  # no manager: nothing to sample
        assert tree.manager is None


class TestProtocol:
    def test_adaptive_index_callbacks(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(sorted_pairs(300), leaf_capacity=32)
        assert tree.tracked_population() == tree.num_leaves
        leaf = next(tree.leaves())
        assert tree.encoding_of(leaf) is LeafEncoding.SUCCINCT
        assert tree.migrate(leaf, LeafEncoding.GAPPED, None)
        assert tree.encoding_of(leaf) is LeafEncoding.GAPPED
        assert not tree.migrate(leaf, LeafEncoding.GAPPED, None)
        census = tree.encoding_census()
        assert census[LeafEncoding.GAPPED][0] == 1

    def test_encoding_of_foreign_object(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(sorted_pairs(100))
        assert tree.encoding_of("not-a-leaf") is None

    def test_total_size_includes_manager(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(sorted_pairs(100))
        total = tree.stats()["total_size_bytes"]
        assert total == tree.size_bytes() + tree.manager.size_bytes()

    def test_migration_updates_incremental_size(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(sorted_pairs(600), leaf_capacity=32)
        for leaf in list(tree.leaves())[:5]:
            tree.migrate(leaf, LeafEncoding.GAPPED, None)
        tree.verify()


class TestDeleteForgetting:
    def test_emptied_leaf_forgotten(self):
        pairs = [(key, key) for key in range(40)]
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=8, manager_config=fast_config()
        )
        first_leaf = next(tree.leaves())
        tree.manager.register(first_leaf)
        for key, _ in first_leaf.to_pairs():
            tree.delete(key)
        assert tree.manager.stats_of(first_leaf) is None
