"""Tests for the B+-tree over all three leaf encodings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree


def sorted_pairs(n, seed=0, spread=10**9):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(spread), n))
    return [(key, key * 3) for key in keys]


@pytest.fixture(params=list(LeafEncoding), ids=lambda e: e.value)
def encoding(request):
    return request.param


class TestBulkLoad:
    def test_lookup_all(self, encoding):
        pairs = sorted_pairs(2000)
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=32)
        tree.verify()
        for key, value in pairs[::37]:
            assert tree.lookup(key) == value

    def test_misses(self, encoding):
        pairs = [(key * 2, key) for key in range(100)]
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=16)
        assert tree.lookup(1) is None
        assert tree.lookup(1999) is None

    def test_fill_factor_controls_leaf_count(self):
        pairs = sorted_pairs(1000)
        full = BPlusTree.bulk_load(pairs, fill_factor=1.0, leaf_capacity=50)
        seventy = BPlusTree.bulk_load(pairs, fill_factor=0.7, leaf_capacity=50)
        assert full.num_leaves == 20
        assert seventy.num_leaves == 1000 // 35 + (1 if 1000 % 35 else 0)

    def test_empty_bulk_load(self, encoding):
        tree = BPlusTree.bulk_load([], encoding)
        assert len(tree) == 0
        assert tree.lookup(1) is None

    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(2, 0), (1, 0)])
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(1, 0), (1, 0)])

    def test_requires_empty_tree(self):
        tree = BPlusTree()
        tree.insert(1, 1)
        with pytest.raises(ValueError):
            tree._bulk_load_into([(2, 2)], 0.7)

    def test_invalid_fill_factor(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(1, 1)], fill_factor=0.01)

    def test_items_sorted(self, encoding):
        pairs = sorted_pairs(500)
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=16)
        assert list(tree.items()) == pairs


class TestInserts:
    def test_random_inserts(self, encoding):
        tree = BPlusTree(encoding, leaf_capacity=16)
        rng = random.Random(1)
        data = rng.sample(range(10**6), 1500)
        for key in data:
            assert tree.insert(key, key + 7)
        tree.verify()
        assert len(tree) == 1500
        for key in data:
            assert tree.lookup(key) == key + 7

    def test_insert_existing_overwrites(self, encoding):
        tree = BPlusTree(encoding, leaf_capacity=8)
        tree.insert(5, 1)
        assert not tree.insert(5, 2)
        assert tree.lookup(5) == 2
        assert len(tree) == 1

    def test_sequential_inserts_split_correctly(self, encoding):
        tree = BPlusTree(encoding, leaf_capacity=8)
        for key in range(300):
            tree.insert(key, key)
        tree.verify()
        assert tree.height > 1

    def test_descending_inserts(self, encoding):
        tree = BPlusTree(encoding, leaf_capacity=8)
        for key in reversed(range(300)):
            tree.insert(key, key)
        tree.verify()
        assert list(tree.items()) == [(key, key) for key in range(300)]


class TestUpdatesAndDeletes:
    def test_update(self, encoding):
        pairs = sorted_pairs(200)
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=16)
        key = pairs[50][0]
        assert tree.update(key, 999)
        assert tree.lookup(key) == 999
        assert not tree.update(-1, 0)

    def test_delete(self, encoding):
        pairs = sorted_pairs(300)
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=16)
        for key, _ in pairs[:150]:
            assert tree.delete(key)
        tree.verify()
        assert len(tree) == 150
        for key, _ in pairs[:150]:
            assert tree.lookup(key) is None
        for key, value in pairs[150:]:
            assert tree.lookup(key) == value

    def test_delete_missing(self, encoding):
        tree = BPlusTree.bulk_load(sorted_pairs(50), encoding)
        assert not tree.delete(-5)


class TestScans:
    def test_scan_within_leaf(self, encoding):
        pairs = [(key, key) for key in range(0, 100, 2)]
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=64)
        assert tree.scan(10, 3) == [(10, 10), (12, 12), (14, 14)]

    def test_scan_across_leaves(self, encoding):
        pairs = [(key, key) for key in range(500)]
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=8)
        assert tree.scan(200, 50) == [(key, key) for key in range(200, 250)]

    def test_scan_from_missing_key(self, encoding):
        pairs = [(key * 10, key) for key in range(100)]
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=8)
        assert tree.scan(55, 2) == [(60, 6), (70, 7)]

    def test_scan_past_end(self, encoding):
        tree = BPlusTree.bulk_load([(1, 1), (2, 2)], encoding)
        assert tree.scan(5, 10) == []
        assert tree.scan(1, 100) == [(1, 1), (2, 2)]

    def test_scan_zero_count(self, encoding):
        tree = BPlusTree.bulk_load([(1, 1)], encoding)
        assert tree.scan(0, 0) == []

    def test_scan_across_leaves_of_negative_keys(self, encoding):
        pairs = [(key, key) for key in range(-300, 100, 3)]
        tree = BPlusTree.bulk_load(pairs, encoding, leaf_capacity=8)
        assert tree.scan(-300, 90) == pairs[:90]
        assert tree.scan(-250, 1000) == [pair for pair in pairs if pair[0] >= -250]


class TestCountersAndSizes:
    def test_leaf_visit_counted_by_encoding(self):
        tree = BPlusTree.bulk_load(sorted_pairs(100), LeafEncoding.PACKED)
        tree.lookup(1)
        assert tree.counters.get("leaf_visit:packed") == 1

    def test_size_tracks_encoding(self):
        pairs = sorted_pairs(2000)
        sizes = {
            encoding: BPlusTree.bulk_load(pairs, encoding, leaf_capacity=64).size_bytes()
            for encoding in LeafEncoding
        }
        assert sizes[LeafEncoding.SUCCINCT] < sizes[LeafEncoding.PACKED]
        assert sizes[LeafEncoding.PACKED] < sizes[LeafEncoding.GAPPED]

    def test_incremental_size_matches_walk(self, encoding):
        tree = BPlusTree(encoding, leaf_capacity=8)
        rng = random.Random(3)
        for key in rng.sample(range(10**5), 400):
            tree.insert(key, key)
        for key in rng.sample(range(10**5), 200):
            tree.delete(key)
        tree.verify()  # includes leaf-byte reconciliation

    def test_census(self):
        tree = BPlusTree.bulk_load(sorted_pairs(500), LeafEncoding.SUCCINCT, leaf_capacity=16)
        census = tree.leaf_encoding_census()
        count, avg = census[LeafEncoding.SUCCINCT]
        assert count == tree.num_leaves
        assert avg > 0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "lookup"]),
            st.integers(min_value=0, max_value=500),
        ),
        max_size=120,
    ),
    st.sampled_from(list(LeafEncoding)),
)
def test_tree_matches_dict(operations, encoding):
    tree = BPlusTree(encoding, leaf_capacity=8)
    reference = {}
    for action, key in operations:
        if action == "insert":
            tree.insert(key, key * 2)
            reference[key] = key * 2
        elif action == "delete":
            assert tree.delete(key) == (key in reference)
            reference.pop(key, None)
        else:
            assert tree.lookup(key) == reference.get(key)
    tree.verify()
    assert list(tree.items()) == sorted(reference.items())
