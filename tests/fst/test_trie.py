"""Tests for the LOUDS dense/sparse Fast Succinct Trie."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.tree import terminated
from repro.fst.builder import build_trie_levels
from repro.fst.trie import FST, choose_dense_cutoff


def int_pairs(n, seed=0, bits=48):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(2**bits), n))
    return [(key.to_bytes(8, "big"), index) for index, key in enumerate(keys)]


DENSE_CONFIGS = [0, 2, 4, 64]


@pytest.fixture(params=DENSE_CONFIGS, ids=lambda d: f"dense={d}")
def dense_levels(request):
    return request.param


class TestLookup:
    def test_all_keys_found(self, dense_levels):
        pairs = int_pairs(800)
        fst = FST(pairs, dense_levels=dense_levels)
        for key, value in pairs[::13]:
            assert fst.lookup(key) == value

    def test_misses(self, dense_levels):
        pairs = int_pairs(200)
        fst = FST(pairs, dense_levels=dense_levels)
        assert fst.lookup(b"\x00" * 8) is None
        assert fst.lookup(b"\xff" * 8) is None

    def test_short_query_key(self):
        fst = FST([(b"abcd", 1)])
        assert fst.lookup(b"ab") is None

    def test_empty(self):
        fst = FST([])
        assert fst.lookup(b"anything") is None
        assert fst.num_keys == 0
        assert list(fst.items()) == []

    def test_variable_length_terminated(self, dense_levels):
        words = sorted(terminated(word) for word in [b"a", b"ab", b"abc", b"b", b"ba"])
        fst = FST([(word, index) for index, word in enumerate(words)], dense_levels=dense_levels)
        for index, word in enumerate(words):
            assert fst.lookup(word) == index

    def test_lookup_from_mid_trie(self):
        pairs = int_pairs(200)
        fst = FST(pairs, dense_levels=0)
        key = pairs[50][0]
        child, value, found = fst.step(0, key[0])
        assert found and value is None
        assert fst.lookup_from(child, key, 1) == 50


class TestStructure:
    def test_node_numbering_counts(self, dense_levels):
        pairs = int_pairs(300)
        fst = FST(pairs, dense_levels=dense_levels)
        counts = build_trie_levels(pairs).level_node_counts()
        assert fst.num_nodes == sum(counts)
        assert fst.num_dense_nodes == sum(counts[:dense_levels])

    def test_children_match_builder(self, dense_levels):
        pairs = int_pairs(120)
        fst = FST(pairs, dense_levels=dense_levels)
        # Node numbers are BFS order, which is the rows' order: node ``n``
        # owns the labels from its LOUDS bit up to the next one, and the
        # terminal labels take their row's values in turn.
        expected = []
        for row in build_trie_levels(pairs).levels:
            values = iter(row.values)
            for label, has_child, starts in zip(row.labels, row.has_child, row.louds):
                if starts:
                    expected.append([])
                expected[-1].append((label, bool(has_child), None if has_child else next(values)))
        assert len(expected) == fst.num_nodes
        for node_number, entries in enumerate(expected):
            found = fst.children(node_number)
            assert [(label, child is not None, value) for label, child, value in found] == entries



class TestIterationAndScans:
    def test_items_sorted(self, dense_levels):
        pairs = int_pairs(300)
        fst = FST(pairs, dense_levels=dense_levels)
        assert list(fst.items()) == pairs

    def test_scan(self, dense_levels):
        pairs = int_pairs(300)
        fst = FST(pairs, dense_levels=dense_levels)
        assert fst.scan(pairs[100][0], 25) == pairs[100:125]

    def test_scan_from_missing_start(self):
        fst = FST([(b"bb", 1), (b"dd", 2), (b"ff", 3)])
        assert fst.scan(b"cc", 5) == [(b"dd", 2), (b"ff", 3)]

    def test_scan_zero(self):
        fst = FST([(b"aa", 1)])
        assert fst.scan(b"aa", 0) == []

    def test_iterate_subtree(self):
        """A subtree walk is ``scan_from`` rooted at the node with
        ``path == start_key``: every key below it; the one visit is
        returned, not charged."""
        pairs = [(b"ax", 0), (b"ay", 1), (b"bz", 2)]
        fst = FST(pairs, dense_levels=0)
        child, _, _ = fst.step(0, ord("a"))
        charged = dict(fst.counters.counts)
        result = []
        assert fst.scan_from(child, b"a", b"a", fst.num_keys, result) == (0, 1)
        assert result == [(b"ax", 0), (b"ay", 1)]
        assert dict(fst.counters.counts) == charged


class TestSizesAndCounters:
    def test_sparse_smaller_than_dense_for_low_fanout(self):
        pairs = int_pairs(2000)
        sparse = FST(pairs, dense_levels=0)
        dense = FST(pairs, dense_levels=64)
        assert sparse.sparse_size_bytes() > 0
        assert sparse.size_bytes() < dense.size_bytes()

    def test_visit_counters_by_region(self):
        pairs = int_pairs(200)
        fst = FST(pairs, dense_levels=2)
        fst.lookup(pairs[0][0])
        assert fst.counters.get("fst_dense_visit") >= 1
        assert fst.counters.get("fst_sparse_visit") >= 1

    def test_values_size(self):
        fst = FST(int_pairs(100))
        assert fst.values_size_bytes() == 800


class TestDenseCutoffHeuristic:
    def test_high_fanout_levels_go_dense(self):
        # Two full fanout-16 levels: average fanout 16 < 32 -> all sparse.
        keys = [bytes([a, b]) for a in range(16) for b in range(16)]
        levels = build_trie_levels([(key, 0) for key in keys])
        assert choose_dense_cutoff(levels) == 0
        # Fanout 64 > 32 -> level 0 dense.
        keys = sorted({bytes([a, b]) for a in range(64) for b in range(8)})
        levels = build_trie_levels([(key, 0) for key in keys])
        assert choose_dense_cutoff(levels) >= 1


@settings(max_examples=20, deadline=None)
@given(
    # The 0x00 terminator convention requires null-free raw keys.
    st.lists(
        st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=6).map(bytes),
        unique=True,
        min_size=1,
        max_size=60,
    ),
    st.sampled_from(DENSE_CONFIGS),
)
def test_fst_matches_dict(raw_keys, dense_levels):
    keys = sorted({terminated(key) for key in raw_keys})
    pairs = [(key, index) for index, key in enumerate(keys)]
    fst = FST(pairs, dense_levels=dense_levels)
    for key, value in pairs:
        assert fst.lookup(key) == value
    assert list(fst.items()) == pairs
