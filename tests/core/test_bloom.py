"""Tests for the Bloom filter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(capacity=100)
        items = [f"item-{i}" for i in range(100)]
        for item in items:
            bloom.add(item)
        assert all(item in bloom for item in items)

    def test_unseen_mostly_absent(self):
        bloom = BloomFilter(capacity=1000)
        for i in range(1000):
            bloom.add(("seen", i))
        false_positives = sum(1 for i in range(1000) if ("unseen", i) in bloom)
        # 10 bits/item -> ~1% FPR; allow generous slack.
        assert false_positives < 60

    def test_add_and_check_first_sighting_false(self):
        bloom = BloomFilter(capacity=64)
        assert bloom.add_and_check("x") is False
        assert bloom.add_and_check("x") is True

    def test_reset(self):
        bloom = BloomFilter(capacity=64)
        bloom.add("x")
        bloom.reset()
        assert "x" not in bloom
        assert bloom.approximate_count == 0

    def test_count_tracks_insertions(self):
        bloom = BloomFilter(capacity=64)
        bloom.add("a")
        bloom.add_and_check("b")
        assert bloom.approximate_count == 2

    def test_capacity_floor(self):
        bloom = BloomFilter(capacity=0)
        bloom.add("x")
        assert "x" in bloom

    def test_size_bytes(self):
        bloom = BloomFilter(capacity=100)
        assert bloom.size_bytes() == 125

    def test_num_hashes_near_optimal(self):
        bloom = BloomFilter(capacity=10)
        assert bloom.num_hashes == 7  # round(ln2 * 10)

    def test_works_with_int_identifiers(self):
        bloom = BloomFilter(capacity=32)
        bloom.add(123456789)
        assert 123456789 in bloom


@settings(max_examples=40)
@given(st.lists(st.integers(), max_size=200))
def test_membership_property(items):
    bloom = BloomFilter(capacity=max(1, len(items)))
    for item in items:
        bloom.add(item)
    assert all(item in bloom for item in items)
