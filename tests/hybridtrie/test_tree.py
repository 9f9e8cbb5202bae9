"""Tests for the Hybrid Trie (AHI-Trie)."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.tree import terminated
from repro.core.budget import MemoryBudget
from repro.core.manager import ManagerConfig
from repro.hybridtrie.tagged import TrieBranch, TrieEncoding
from repro.hybridtrie.tree import TRIE_ENCODING_ORDER, HybridTrie


def int_pairs(n, seed=0, bits=48):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(2**bits), n))
    return [(key.to_bytes(8, "big"), index) for index, key in enumerate(keys)]


def fast_config(budget=None):
    return ManagerConfig(
        encoding_order=TRIE_ENCODING_ORDER,
        budget=budget or MemoryBudget.unbounded(),
        initial_skip_length=0,
        skip_min=0,
        skip_max=10,
        initial_sample_size=400,
        max_sample_size=400,
        use_bloom_filter=False,
    )


class TestConstruction:
    def test_lookup_all_keys(self):
        pairs = int_pairs(1000)
        trie = HybridTrie(pairs, art_levels=2)
        for key, value in pairs[::17]:
            assert trie.lookup(key) == value

    def test_art_levels_zero_means_root_branch(self):
        pairs = int_pairs(100)
        trie = HybridTrie(pairs, art_levels=0)
        assert isinstance(trie._root, TrieBranch)
        for key, value in pairs[::9]:
            assert trie.lookup(key) == value

    def test_art_levels_clamped_to_height(self):
        pairs = int_pairs(50)
        trie = HybridTrie(pairs, art_levels=100)
        assert trie.art_levels <= trie.fst.height
        for key, value in pairs[::7]:
            assert trie.lookup(key) == value

    def test_empty(self):
        trie = HybridTrie([])
        assert trie.lookup(b"x") is None
        assert trie.items() == []
        assert len(trie) == 0

    def test_misses(self):
        trie = HybridTrie(int_pairs(200), art_levels=2)
        assert trie.lookup(b"\x00" * 8) is None

    def test_variable_length_keys(self):
        words = sorted(terminated(word) for word in [b"car", b"cart", b"cat", b"dog"])
        trie = HybridTrie([(word, index) for index, word in enumerate(words)], art_levels=1)
        for index, word in enumerate(words):
            assert trie.lookup(word) == index


class TestScans:
    def test_items_and_scan(self):
        pairs = int_pairs(400)
        trie = HybridTrie(pairs, art_levels=2)
        assert trie.items() == pairs
        assert trie.scan(pairs[100][0], 20) == pairs[100:120]

    def test_scan_spanning_art_and_fst(self):
        pairs = int_pairs(400)
        trie = HybridTrie(pairs, art_levels=3, manager_config=fast_config())
        # Expand one branch, then scan across it.
        branch = trie._branch_on_path(pairs[100][0])
        trie.expand_branch(branch)
        assert trie.scan(pairs[95][0], 30) == pairs[95:125]


class TestBranchMigrations:
    def test_expand_preserves_lookups(self):
        pairs = int_pairs(500)
        trie = HybridTrie(pairs, art_levels=1)
        branch = trie._branch_on_path(pairs[0][0])
        assert trie.expand_branch(branch)
        assert branch.encoding is TrieEncoding.ART
        for key, value in pairs[::23]:
            assert trie.lookup(key) == value

    def test_expand_idempotent(self):
        pairs = int_pairs(100)
        trie = HybridTrie(pairs, art_levels=1)
        branch = trie._branch_on_path(pairs[0][0])
        assert trie.expand_branch(branch)
        assert not trie.expand_branch(branch)

    def test_compact_restores_fst_mode(self):
        pairs = int_pairs(500)
        trie = HybridTrie(pairs, art_levels=1)
        branch = trie._branch_on_path(pairs[0][0])
        trie.expand_branch(branch)
        size_expanded = trie.size_bytes()
        assert trie.compact_branch(branch)
        assert branch.encoding is TrieEncoding.FST
        assert trie.size_bytes() < size_expanded
        for key, value in pairs[::23]:
            assert trie.lookup(key) == value

    def test_compact_detaches_nested_children(self):
        pairs = int_pairs(800)
        trie = HybridTrie(pairs, art_levels=1)
        outer = trie._branch_on_path(pairs[0][0])
        trie.expand_branch(outer)
        inner = trie._branch_on_path(pairs[0][0])
        assert inner is not outer
        trie.expand_branch(inner)
        branches_before = trie.num_branches
        trie.compact_branch(outer)
        assert inner.detached
        assert trie.num_branches < branches_before
        assert trie.encoding_of(inner) is None
        for key, value in pairs[::31]:
            assert trie.lookup(key) == value

    def test_size_accounting_consistent(self):
        pairs = int_pairs(600)
        trie = HybridTrie(pairs, art_levels=1)
        base = trie.size_bytes()
        branch = trie._branch_on_path(pairs[0][0])
        trie.expand_branch(branch)
        trie.compact_branch(branch)
        # Branch-count bookkeeping may differ by the dropped children only.
        assert trie.size_bytes() <= base

    def test_migration_counters(self):
        pairs = int_pairs(300)
        trie = HybridTrie(pairs, art_levels=1)
        branch = trie._branch_on_path(pairs[0][0])
        trie.expand_branch(branch)
        assert trie.counters.get("migration:fst->art") == 1
        assert trie.counters.get("migration_label:fst->art") > 0
        trie.compact_branch(branch)
        assert trie.counters.get("migration:art->fst") == 1


class TestAdaptation:
    def test_hot_branches_expand(self):
        pairs = int_pairs(2000)
        trie = HybridTrie(pairs, art_levels=2, manager_config=fast_config())
        hot = [key for key, _ in pairs[:60]]
        rng = np.random.default_rng(0)
        for _ in range(2500):
            trie.lookup(hot[rng.integers(0, len(hot))])
        assert trie.expanded_branch_count() >= 1
        for key, value in pairs[::41]:
            assert trie.lookup(key) == value

    def test_workload_shift_compacts(self):
        pairs = int_pairs(2000)
        trie = HybridTrie(pairs, art_levels=2, manager_config=fast_config())
        rng = np.random.default_rng(1)
        first = [key for key, _ in pairs[:50]]
        second = [key for key, _ in pairs[-50:]]
        for _ in range(2000):
            trie.lookup(first[rng.integers(0, 50)])
        for _ in range(4000):
            trie.lookup(second[rng.integers(0, 50)])
        assert trie.manager.counters.compactions >= 1

    def test_non_adaptive_never_migrates(self):
        pairs = int_pairs(1000)
        trie = HybridTrie(pairs, art_levels=2, adaptive=False)
        rng = np.random.default_rng(2)
        hot = [key for key, _ in pairs[:30]]
        for _ in range(3000):
            trie.lookup(hot[rng.integers(0, 30)])
        assert trie.expanded_branch_count() == 0


class TestTraining:
    def test_train_expands_hot_branches(self):
        pairs = int_pairs(1500)
        trie = HybridTrie(pairs, art_levels=2, adaptive=False)
        workload = [pairs[index % 40][0] for index in range(2000)]
        migrated = trie.train(workload, budget=MemoryBudget.absolute(trie.size_bytes() + 20_000))
        assert migrated >= 1
        assert trie.expanded_branch_count() == migrated
        for key, value in pairs[::37]:
            assert trie.lookup(key) == value

    def test_train_respects_budget(self):
        pairs = int_pairs(1500)
        trie = HybridTrie(pairs, art_levels=2, adaptive=False)
        budget = MemoryBudget.absolute(trie.size_bytes() + 1)
        migrated = trie.train([pairs[0][0]] * 100, budget)
        assert migrated <= 1


class TestProtocol:
    def test_callbacks(self):
        pairs = int_pairs(300)
        trie = HybridTrie(pairs, art_levels=2)
        assert trie.tracked_population() == trie.num_branches
        branch = trie._branch_on_path(pairs[0][0])
        assert trie.encoding_of(branch) is TrieEncoding.FST
        assert trie.migrate(branch, TrieEncoding.ART, None)
        assert trie.encoding_of(branch) is TrieEncoding.ART
        assert trie.migrate(branch, TrieEncoding.FST, None)
        assert trie.encoding_of("junk") is None

    def test_census(self):
        pairs = int_pairs(300)
        trie = HybridTrie(pairs, art_levels=2)
        census = trie.encoding_census()
        assert census[TrieEncoding.FST][0] == trie.num_branches
        branch = trie._branch_on_path(pairs[0][0])
        trie.expand_branch(branch)
        census = trie.encoding_census()
        assert census[TrieEncoding.ART][0] == 1

    def test_total_size_includes_manager(self):
        trie = HybridTrie(int_pairs(100))
        total = trie.stats()["total_size_bytes"]
        assert total == trie.size_bytes() + trie.manager.size_bytes()


@settings(max_examples=15, deadline=None)
@given(
    # The 0x00 terminator convention requires null-free raw keys.
    st.lists(
        st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=5).map(bytes),
        unique=True,
        min_size=2,
        max_size=50,
    ),
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(min_value=0, max_value=49), max_size=12),
)
def test_hybrid_trie_consistent_under_random_migrations(raw_keys, art_levels, expand_picks):
    keys = sorted({terminated(key) for key in raw_keys})
    pairs = [(key, index) for index, key in enumerate(keys)]
    trie = HybridTrie(pairs, art_levels=art_levels, adaptive=False)
    for pick in expand_picks:
        branch = trie._branch_on_path(keys[pick % len(keys)])
        if branch is not None:
            trie.expand_branch(branch)
    for key, value in pairs:
        assert trie.lookup(key) == value
    assert trie.items() == pairs


class TestPrefixAndSuccessor:
    def test_prefix_items_across_mixed_structure(self):
        pairs = int_pairs(800)
        trie = HybridTrie(pairs, art_levels=2, adaptive=False)
        # Expand a branch so the result set spans ART and FST regions.
        branch = trie._branch_on_path(pairs[0][0])
        trie.expand_branch(branch)
        prefix = pairs[100][0][:3]
        expected = [(key, value) for key, value in pairs if key.startswith(prefix)]
        assert trie.prefix_items(prefix) == expected
        assert expected  # the prefix really matches something

    def test_prefix_items_no_match(self):
        trie = HybridTrie(int_pairs(100), art_levels=1, adaptive=False)
        assert trie.prefix_items(b"\xff\xff\xff") == []

    def test_prefix_items_chunk_boundary(self):
        # More than one scan chunk (256) of matches under one prefix.
        pairs = [(bytes([1]) + key.to_bytes(7, "big"), key) for key in range(700)]
        trie = HybridTrie(pairs, art_levels=1, adaptive=False)
        assert trie.prefix_items(bytes([1])) == pairs

    def test_successor(self):
        pairs = int_pairs(300)
        trie = HybridTrie(pairs, art_levels=2, adaptive=False)
        assert trie.successor(pairs[42][0]) == pairs[42]
        probe = (int.from_bytes(pairs[42][0], "big") + 1).to_bytes(8, "big")
        assert trie.successor(probe) == pairs[43]
        assert trie.successor(b"\xff" * 8) is None
