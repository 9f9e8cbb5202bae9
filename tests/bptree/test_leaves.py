"""Tests for the three leaf encodings and the stable leaf wrapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bptree.leaves import (
    GappedStorage,
    LeafEncoding,
    LeafNode,
    PackedStorage,
    SuccinctStorage,
)

ENCODINGS = list(LeafEncoding)
STORAGES = [GappedStorage, PackedStorage, SuccinctStorage]


def pairs_of(*keys):
    return [(key, key * 10) for key in keys]


@pytest.fixture(params=STORAGES, ids=lambda cls: cls.encoding.value)
def storage_class(request):
    return request.param


class TestStorageCommon:
    def test_lookup_hit_and_miss(self, storage_class):
        storage = storage_class(pairs_of(1, 5, 9), capacity=8)
        assert storage.lookup(5) == 50
        assert storage.lookup(4) is None

    def test_insert_new(self, storage_class):
        storage = storage_class(pairs_of(1, 9), capacity=8)
        assert storage.insert(5, 55)
        assert storage.lookup(5) == 55
        assert storage.to_pairs() == [(1, 10), (5, 55), (9, 90)]

    def test_insert_overwrites(self, storage_class):
        storage = storage_class(pairs_of(1, 5), capacity=8)
        assert storage.insert(5, 99)
        assert storage.lookup(5) == 99
        assert storage.num_entries() == 2

    def test_insert_full_returns_false(self, storage_class):
        storage = storage_class(pairs_of(1, 2, 3), capacity=3)
        assert not storage.insert(4, 40)
        assert storage.num_entries() == 3

    def test_update(self, storage_class):
        storage = storage_class(pairs_of(1, 5), capacity=8)
        assert storage.update(1, 111)
        assert storage.lookup(1) == 111
        assert not storage.update(7, 70)

    def test_delete(self, storage_class):
        storage = storage_class(pairs_of(1, 5, 9), capacity=8)
        assert storage.delete(5)
        assert storage.lookup(5) is None
        assert storage.num_entries() == 2
        assert not storage.delete(5)

    def test_min_max(self, storage_class):
        storage = storage_class(pairs_of(3, 7, 11), capacity=8)
        assert storage.min_key() == 3
        assert storage.max_key() == 11

    def test_empty(self, storage_class):
        storage = storage_class([], capacity=8)
        assert storage.num_entries() == 0
        assert storage.min_key() is None
        assert storage.max_key() is None
        assert storage.lookup(1) is None

    def test_entries_from(self, storage_class):
        storage = storage_class(pairs_of(2, 4, 6, 8), capacity=8)
        assert storage.pairs_from(4, 8) == [(4, 40), (6, 60), (8, 80)]
        assert storage.pairs_from(5, 8) == [(6, 60), (8, 80)]
        assert storage.pairs_from(99, 8) == []

    @pytest.mark.parametrize("start", [-5, 0, 31, 32, 33, 95, 96, 200])
    @pytest.mark.parametrize("limit", [0, 1, 5, 32, 33, 70, 500])
    def test_pairs_from_is_a_prefix_of_entries_from(self, storage_class, start, limit):
        # 100 entries: three full 32-entry Succinct blocks and a partial one.
        pairs = pairs_of(*range(-4, 196, 2))
        storage = storage_class(pairs, capacity=128)
        expected = [pair for pair in pairs if pair[0] >= start][:limit]
        assert storage.pairs_from(start, limit) == expected

    def test_counter_names_match_the_encoding(self, storage_class):
        encoding = storage_class.encoding
        assert storage_class.visit_event == f"leaf_visit:{encoding}"
        assert storage_class.write_event == f"leaf_write:{encoding}"

    def test_rejects_unsorted(self, storage_class):
        with pytest.raises(ValueError):
            storage_class([(5, 1), (1, 2)], capacity=8)

    def test_rejects_overflow(self, storage_class):
        with pytest.raises(ValueError):
            storage_class(pairs_of(1, 2, 3), capacity=2)


class TestSizeModel:
    def test_gapped_size_fixed(self):
        small = GappedStorage(pairs_of(1), capacity=255)
        large = GappedStorage(pairs_of(*range(1, 200)), capacity=255)
        assert small.size_bytes() == large.size_bytes() == 16 + 255 * 16

    def test_packed_size_tracks_entries(self):
        storage = PackedStorage(pairs_of(*range(1, 101)), capacity=255)
        assert storage.size_bytes() == 16 + 100 * 16

    def test_succinct_smaller_on_clustered_keys(self):
        pairs = [(10**12 + i, i) for i in range(178)]
        succinct = SuccinctStorage(pairs, capacity=255)
        packed = PackedStorage(pairs, capacity=255)
        gapped = GappedStorage(pairs, capacity=255)
        assert succinct.size_bytes() < packed.size_bytes() < gapped.size_bytes()
        # The paper's Table 1 reports ~73% savings vs gapped.
        assert succinct.size_bytes() < 0.4 * gapped.size_bytes()

    def test_succinct_blockwise_outlier_isolation(self):
        clustered = [(1000 + i, i) for i in range(64)]
        with_outlier = clustered[:-1] + [(2**60, 63)]
        a = SuccinctStorage(clustered, capacity=255).size_bytes()
        b = SuccinctStorage(sorted(with_outlier), capacity=255).size_bytes()
        # One outlier inflates only its own block, not the whole leaf:
        # a whole-leaf FOR frame would put 60-bit deltas on all 64 keys.
        whole_leaf_floor = 64 * 60 // 8
        assert b < 4 * a
        assert b < whole_leaf_floor + a


class TestLeafNode:
    def test_identity_stable_across_migration(self):
        leaf = LeafNode(pairs_of(1, 2, 3), LeafEncoding.SUCCINCT, capacity=8)
        original_hash = hash(leaf)
        assert leaf.migrate_to(LeafEncoding.GAPPED)
        assert hash(leaf) == original_hash
        assert leaf.encoding is LeafEncoding.GAPPED
        assert leaf.to_pairs() == pairs_of(1, 2, 3)

    def test_migrate_to_same_encoding_noop(self):
        leaf = LeafNode(pairs_of(1), LeafEncoding.PACKED, capacity=8)
        assert not leaf.migrate_to(LeafEncoding.PACKED)

    def test_equality_is_identity(self):
        a = LeafNode(pairs_of(1), LeafEncoding.GAPPED, capacity=8)
        b = LeafNode(pairs_of(1), LeafEncoding.GAPPED, capacity=8)
        assert a == a
        assert a != b

    def test_delegation(self):
        leaf = LeafNode(pairs_of(1, 5), LeafEncoding.PACKED, capacity=8)
        assert leaf.lookup(5) == 50
        leaf.insert(3, 33)
        assert leaf.num_entries() == 3
        assert leaf.min_key() == 1
        assert leaf.max_key() == 5

    def test_next_leaf_chain(self):
        a = LeafNode(pairs_of(1), LeafEncoding.GAPPED, capacity=8)
        b = LeafNode(pairs_of(2), LeafEncoding.GAPPED, capacity=8)
        a.next_leaf = b
        assert a.next_leaf is b
        assert b.next_leaf is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**48), unique=True, max_size=60),
    st.sampled_from(ENCODINGS),
)
def test_all_encodings_agree(keys, encoding):
    keys = sorted(keys)
    pairs = [(key, key ^ 0xABC) for key in keys]
    leaf = LeafNode(pairs, encoding, capacity=128)
    reference = dict(pairs)
    for key in keys:
        assert leaf.lookup(key) == reference[key]
    assert leaf.to_pairs() == pairs


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "update"]), st.integers(0, 50)),
        max_size=40,
    )
)
def test_succinct_matches_dict_semantics(operations):
    storage = SuccinctStorage([], capacity=128)
    reference = {}
    for action, key in operations:
        if action == "insert":
            storage.insert(key, key + 1)
            reference[key] = key + 1
        elif action == "delete":
            assert storage.delete(key) == (key in reference)
            reference.pop(key, None)
        else:
            assert storage.update(key, key * 7) == (key in reference)
            if key in reference:
                reference[key] = key * 7
    assert storage.to_pairs() == sorted(reference.items())
