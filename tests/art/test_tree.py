"""Tests for the Adaptive Radix Tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.tree import ART, terminated


def int_pairs(n, seed=0):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(2**48), n))
    return [(key.to_bytes(8, "big"), index) for index, key in enumerate(keys)]


class TestLookup:
    def test_hits_and_misses(self):
        pairs = int_pairs(1000)
        art = ART.from_sorted(pairs)
        for key, value in pairs[::29]:
            assert art.lookup(key) == value
        assert art.lookup(b"\xff" * 8) is None or (b"\xff" * 8, None) in pairs

    def test_contains(self):
        art = ART.from_sorted([(b"abcd", 1)])
        assert b"abcd" in art
        assert b"abce" not in art

    def test_empty_tree(self):
        art = ART()
        assert art.lookup(b"x") is None
        assert len(art) == 0
        assert art.size_bytes() == 0


class TestInsert:
    def test_insert_counts_keys(self):
        art = ART()
        assert art.insert(b"aa", 1)
        assert art.insert(b"ab", 2)
        assert not art.insert(b"aa", 3)  # overwrite
        assert len(art) == 2
        assert art.lookup(b"aa") == 3

    def test_prefix_key_rejected(self):
        art = ART()
        art.insert(b"abc", 1)
        with pytest.raises(ValueError):
            art.insert(b"ab", 2)

    def test_terminated_prefixes_ok(self):
        art = ART()
        art.insert(terminated(b"ab"), 1)
        art.insert(terminated(b"abc"), 2)
        assert art.lookup(terminated(b"ab")) == 1
        assert art.lookup(terminated(b"abc")) == 2

    def test_prefix_split(self):
        art = ART()
        art.insert(b"abcdef01", 1)
        art.insert(b"abcdxy02", 2)
        art.insert(b"abzzzz03", 3)
        assert art.lookup(b"abcdef01") == 1
        assert art.lookup(b"abcdxy02") == 2
        assert art.lookup(b"abzzzz03") == 3

    def test_node_growth_through_all_types(self):
        art = ART()
        for label in range(256):
            art.insert(bytes([label]) + b"pad", label)
        assert len(art) == 256
        census = art.encoding_census()
        assert census.get("Node256", 0) >= 1
        for label in range(256):
            assert art.lookup(bytes([label]) + b"pad") == label


class TestDelete:
    def test_delete_and_lookup(self):
        pairs = int_pairs(500)
        art = ART.from_sorted(pairs)
        for key, _ in pairs[:250]:
            assert art.delete(key)
        assert len(art) == 250
        for key, _ in pairs[:250]:
            assert art.lookup(key) is None
        for key, value in pairs[250:]:
            assert art.lookup(key) == value

    def test_delete_missing(self):
        art = ART.from_sorted(int_pairs(10))
        assert not art.delete(b"\x00" * 8)

    def test_delete_restores_path_compression(self):
        art = ART()
        art.insert(b"abc1", 1)
        art.insert(b"abc2", 2)
        art.delete(b"abc2")
        # The remaining single key collapses back toward a leaf.
        assert art.lookup(b"abc1") == 1
        census = art.encoding_census()
        assert census == {"ARTLeaf": 1}

    def test_delete_everything(self):
        pairs = int_pairs(100)
        art = ART.from_sorted(pairs)
        for key, _ in pairs:
            assert art.delete(key)
        assert len(art) == 0
        assert art.root is None


class TestIterationAndScan:
    def test_items_sorted(self):
        pairs = int_pairs(300)
        art = ART.from_sorted(pairs)
        assert list(art.items()) == pairs

    def test_scan_from_existing(self):
        pairs = int_pairs(300)
        art = ART.from_sorted(pairs)
        assert art.scan(pairs[40][0], 10) == pairs[40:50]

    def test_scan_from_missing_start(self):
        art = ART.from_sorted([(b"bb", 1), (b"dd", 2), (b"ff", 3)])
        assert art.scan(b"cc", 2) == [(b"dd", 2), (b"ff", 3)]

    def test_scan_exhausts(self):
        art = ART.from_sorted([(b"aa", 1)])
        assert art.scan(b"zz", 5) == []
        assert art.scan(b"", 5) == [(b"aa", 1)]


class TestAccounting:
    def test_visits_counted(self):
        art = ART.from_sorted(int_pairs(100))
        before = art.counters.get("art_visit")
        art.lookup(int_pairs(100)[0][0])
        assert art.counters.get("art_visit") > before

    def test_size_and_census(self):
        art = ART.from_sorted(int_pairs(2000))
        census = art.encoding_census()
        assert census["ARTLeaf"] == 2000
        assert art.size_bytes() > 2000 * 16

    def test_height_with_path_compression(self):
        # 8-byte keys sharing long prefixes: compression keeps it shallow.
        art = ART.from_sorted(int_pairs(1000))
        assert art.height() <= 9


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.binary(min_size=1, max_size=12),
        unique=True,
        min_size=1,
        max_size=80,
    )
)
def test_art_matches_dict(keys):
    keys = [terminated(key) for key in sorted(set(keys))]
    art = ART()
    reference = {}
    for index, key in enumerate(keys):
        art.insert(key, index)
        reference[key] = index
    assert list(art.items()) == sorted(reference.items())
    for key in keys:
        assert art.lookup(key) == reference[key]
    # Delete half, verify the rest.
    for key in keys[::2]:
        assert art.delete(key)
        del reference[key]
    assert list(art.items()) == sorted(reference.items())
