"""Key-space partitioners: routing, ordering, split/merge algebra."""

import pytest

from repro.service.partition import (
    HashPartitioner,
    PartitionError,
    RangePartitioner,
    stable_hash,
)


class TestStableHash:
    def test_deterministic_for_ints_and_bytes(self):
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash(b"hello") == stable_hash(b"hello")
        assert stable_hash(b"hello") == stable_hash(bytearray(b"hello"))

    def test_spreads_sequential_ints(self):
        shards = {stable_hash(key) % 8 for key in range(64)}
        assert len(shards) == 8

    def test_known_value_is_process_independent(self):
        # A pinned value: catches any accidental switch to salted hash().
        assert stable_hash(1) == (0x9E3779B97F4A7C15 ^ (0x9E3779B97F4A7C15 >> 32))


class TestHashPartitioner:
    def test_routes_within_bounds(self):
        partitioner = HashPartitioner(5)
        assert partitioner.num_shards == 5
        for key in range(1000):
            assert 0 <= partitioner.shard_of(key) < 5

    def test_is_unordered_and_rejects_split_merge(self):
        partitioner = HashPartitioner(2)
        assert not partitioner.ordered
        with pytest.raises(PartitionError):
            partitioner.split(0, 10)
        with pytest.raises(PartitionError):
            partitioner.merge(0)

    def test_rejects_zero_shards(self):
        with pytest.raises(PartitionError):
            HashPartitioner(0)


#: ints, negative ints, ints past 64 bits, and byte strings.
INT_KEYS = {
    "int": [3, 0, 17, 3, 2**40 + 1],
    "negative": [-1, -(2**63), 5, -77, -1],
    "wide": [2**64, 2**64 + 1, 2**200, -(2**90), 1],
}
BYTE_KEYS = [b"", b"a", bytearray(b"a"), b"\x00\xff", b"longer key"]
GROUPING_CASES = {
    **{
        f"hash{shards}-{kind}": (HashPartitioner(shards), keys)
        for shards in (1, 5)
        for kind, keys in [*INT_KEYS.items(), ("bytes", BYTE_KEYS)]
    },
    **{
        f"range-{kind}": (RangePartitioner([-10, 0, 2**64]), keys)
        for kind, keys in INT_KEYS.items()
    },
}


@pytest.mark.parametrize(
    "partitioner, keys", GROUPING_CASES.values(), ids=list(GROUPING_CASES)
)
def test_group_routes_every_key_like_shard_of(partitioner, keys):
    expected = {}
    for position, key in enumerate(keys):
        shard_keys, positions = expected.setdefault(partitioner.shard_of(key), ([], []))
        shard_keys.append(key)
        positions.append(position)
    grouped = partitioner.group(keys)
    assert grouped == expected
    assert list(grouped) == list(expected)  # shards in first-seen order
    assert partitioner.group([]) == {}


class TestRangePartitioner:
    def test_routing_follows_boundaries(self):
        partitioner = RangePartitioner([10, 20])
        assert partitioner.num_shards == 3
        assert partitioner.shard_of(-5) == 0
        assert partitioner.shard_of(9) == 0
        assert partitioner.shard_of(10) == 1
        assert partitioner.shard_of(19) == 1
        assert partitioner.shard_of(20) == 2
        assert partitioner.shard_of(10**9) == 2

    def test_is_ordered(self):
        assert RangePartitioner([5]).ordered

    def test_shard_range_bounds(self):
        partitioner = RangePartitioner([10, 20])
        assert partitioner.shard_range(0) == (None, 10)
        assert partitioner.shard_range(1) == (10, 20)
        assert partitioner.shard_range(2) == (20, None)
        with pytest.raises(PartitionError):
            partitioner.shard_range(3)

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(PartitionError):
            RangePartitioner([20, 10])
        with pytest.raises(PartitionError):
            RangePartitioner([10, 10])

    def test_from_keys_equi_depth(self):
        keys = list(range(0, 1000, 2))
        partitioner = RangePartitioner.from_keys(keys, 4)
        assert partitioner.num_shards == 4
        counts = [0, 0, 0, 0]
        for key in keys:
            counts[partitioner.shard_of(key)] += 1
        assert max(counts) - min(counts) <= 2

    def test_from_keys_single_shard(self):
        partitioner = RangePartitioner.from_keys([1, 2, 3], 1)
        assert partitioner.num_shards == 1
        assert partitioner.shard_of(10**9) == 0

    def test_from_keys_needs_enough_distinct_keys(self):
        with pytest.raises(PartitionError):
            RangePartitioner.from_keys([1, 1, 1], 2)

    def test_split_inserts_boundary(self):
        partitioner = RangePartitioner([10])
        wider = partitioner.split(0, 5)
        assert wider.boundaries == (5, 10)
        assert wider.shard_of(4) == 0
        assert wider.shard_of(5) == 1
        assert wider.shard_of(10) == 2
        # The original is untouched (partitioners are value objects).
        assert partitioner.boundaries == (10,)

    def test_split_rejects_out_of_range_key(self):
        partitioner = RangePartitioner([10, 20])
        with pytest.raises(PartitionError):
            partitioner.split(1, 10)  # at lower bound
        with pytest.raises(PartitionError):
            partitioner.split(1, 20)  # at upper bound
        with pytest.raises(PartitionError):
            partitioner.split(0, 99)  # outside entirely

    def test_merge_removes_boundary(self):
        partitioner = RangePartitioner([10, 20])
        merged = partitioner.merge(0)
        assert merged.boundaries == (20,)
        assert merged.shard_of(15) == 0
        with pytest.raises(PartitionError):
            RangePartitioner([10]).merge(1)  # no right neighbour

    def test_split_merge_round_trip(self):
        partitioner = RangePartitioner([100])
        assert partitioner.split(1, 500).merge(1).boundaries == (100,)

    def test_bytes_keys(self):
        partitioner = RangePartitioner([b"m"])
        assert partitioner.shard_of(b"apple") == 0
        assert partitioner.shard_of(b"zebra") == 1
