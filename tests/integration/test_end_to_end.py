"""Cross-module integration tests: full adaptation loops at small scale."""

import numpy as np

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.core.budget import MemoryBudget
from repro.core.manager import ManagerConfig
from repro.harness.runner import IntKeyIndexAdapter, run_operations
from repro.hybridtrie.tree import TRIE_ENCODING_ORDER, HybridTrie
from repro.workloads.datasets import osm_like_keys
from repro.workloads.spec import w5_sequence, w11
from repro.workloads.stream import generate_phase


def btree_config(budget=None):
    return ManagerConfig(
        encoding_order=BTREE_ENCODING_ORDER,
        budget=budget or MemoryBudget.unbounded(),
        initial_skip_length=2,
        skip_min=2,
        skip_max=20,
        max_sample_size=400,
        epsilon=0.2,
        delta=0.2,
    )


class TestAdaptiveBTreeUnderRealWorkload:
    def test_w11_drives_adaptation_and_stays_correct(self):
        keys = osm_like_keys(8000, rng=0)
        pairs = [(int(key), index) for index, key in enumerate(keys)]
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=btree_config()
        )
        operations = generate_phase(keys, w11(num_ops=20_000).phases[0], rng=1)
        adapter = IntKeyIndexAdapter(tree)
        result = run_operations(adapter, operations, interval_ops=5000)
        assert tree.manager.counters.adaptation_phases >= 1
        assert tree.manager.counters.expansions >= 1
        tree.verify()
        # Latency improves as hot leaves expand.
        series = result.series("modeled_ns_per_op")
        assert series[-1] < series[0]
        # Size stays well below the all-gapped tree.
        gapped = BPlusTree.bulk_load(pairs, LeafEncoding.GAPPED, leaf_capacity=32)
        assert tree.size_bytes() < 0.9 * gapped.size_bytes()

    def test_write_then_scan_phases_trigger_both_directions(self):
        keys = osm_like_keys(6000, rng=1)
        pairs = [(int(key), index) for index, key in enumerate(keys)]
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=btree_config()
        )
        adapter = IntKeyIndexAdapter(tree)
        for phase_index, phase in enumerate(w5_sequence(num_ops=15_000).phases):
            operations = generate_phase(keys, phase, rng=2 + phase_index)
            run_operations(adapter, operations, interval_ops=5000)
        assert tree.manager.counters.eager_expansions > 0
        assert tree.manager.counters.compactions >= 1
        tree.verify()

    def test_tight_budget_compacts_everything_compactable(self):
        # Inserts grow the dataset, so a tight absolute budget can end up
        # below even the all-Succinct floor; the correct behaviour is that
        # the tree converges to fully compact (no leaf left expanded).
        keys = osm_like_keys(6000, rng=2)
        pairs = [(int(key), index) for index, key in enumerate(keys)]
        base_size = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32
        ).size_bytes()
        budget = MemoryBudget.absolute(int(base_size * 1.3))
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=btree_config(budget)
        )
        operations = generate_phase(keys, w11(num_ops=20_000).phases[0], rng=3)
        adapter = IntKeyIndexAdapter(tree)
        run_operations(adapter, operations, interval_ops=5000)
        counts = tree.encoding_counts()
        assert counts.get(LeafEncoding.GAPPED, 0) == 0
        assert counts.get(LeafEncoding.PACKED, 0) == 0
        assert tree.manager.counters.compactions >= 1
        tree.verify()

    def test_generous_budget_stays_within_limit(self):
        keys = osm_like_keys(6000, rng=2)
        pairs = [(int(key), index) for index, key in enumerate(keys)]
        gapped_size = BPlusTree.bulk_load(
            pairs, LeafEncoding.GAPPED, leaf_capacity=32
        ).size_bytes()
        budget = MemoryBudget.absolute(int(gapped_size * 0.8))
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=btree_config(budget)
        )
        operations = generate_phase(keys, w11(num_ops=20_000).phases[0], rng=3)
        adapter = IntKeyIndexAdapter(tree)
        run_operations(adapter, operations, interval_ops=5000)
        assert tree.size_bytes() <= budget.absolute_bytes * 1.1
        tree.verify()


class TestTrieAdaptationLoop:
    def test_two_phase_shift_expands_then_compacts(self):
        rng = np.random.default_rng(0)
        import random

        random.seed(0)
        ints = sorted(random.sample(range(2**40), 4000))
        pairs = [(key.to_bytes(8, "big"), index) for index, key in enumerate(ints)]
        config = ManagerConfig(
            encoding_order=TRIE_ENCODING_ORDER,
            initial_skip_length=1,
            skip_min=1,
            skip_max=10,
            max_sample_size=300,
            epsilon=0.2,
            delta=0.2,
        )
        trie = HybridTrie(pairs, art_levels=2, manager_config=config)
        first_hot = [pairs[index][0] for index in range(60)]
        second_hot = [pairs[-index - 1][0] for index in range(60)]
        for _ in range(4000):
            trie.lookup(first_hot[rng.integers(0, 60)])
        expanded_mid = trie.expanded_branch_count()
        assert expanded_mid >= 1
        for _ in range(8000):
            trie.lookup(second_hot[rng.integers(0, 60)])
        assert trie.manager.counters.compactions >= 1
        # Correctness after the full churn.
        for key, value in pairs[::97]:
            assert trie.lookup(key) == value


class TestManagerEventConsistency:
    def test_event_totals_match_counters(self):
        keys = osm_like_keys(5000, rng=3)
        pairs = [(int(key), index) for index, key in enumerate(keys)]
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=btree_config()
        )
        operations = generate_phase(keys, w11(num_ops=15_000).phases[0], rng=4)
        adapter = IntKeyIndexAdapter(tree)
        run_operations(adapter, operations, interval_ops=5000)
        events = tree.manager.events
        # Each phase's event carries that phase's deltas of the counters.
        assert sum(event.expansions for event in events) == tree.manager.counters.expansions
        assert sum(event.compactions for event in events) == tree.manager.counters.compactions
        assert len(events) == tree.manager.counters.adaptation_phases
        # Epochs advance once per adaptation phase.
        assert tree.manager.epoch == len(events) + 1


class TestRelativeBudget:
    def test_bits_per_key_budget_tracks_data_growth(self):
        """Relative budgets (Section 3.1.6) scale with inserts: the byte
        limit grows as keys arrive, so insert-heavy workloads are not
        starved the way absolute budgets starve them."""
        keys = osm_like_keys(5000, rng=5)
        pairs = [(int(key), index) for index, key in enumerate(keys)]
        probe = AdaptiveBPlusTree.bulk_load_adaptive(pairs, leaf_capacity=32)
        bits_per_key = probe.size_bytes() * 8 / len(probe) * 1.5
        budget = MemoryBudget.relative(bits_per_key=bits_per_key)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=btree_config(budget)
        )
        operations = generate_phase(
            keys, w5_sequence(num_ops=15_000).phases[0], rng=6
        )
        adapter = IntKeyIndexAdapter(tree)
        run_operations(adapter, operations, interval_ops=5000)
        limit = budget.limit_bytes(tree.num_keys)
        assert tree.size_bytes() <= limit * 1.15
        assert tree.num_keys > len(pairs)  # inserts really landed
        tree.verify()
