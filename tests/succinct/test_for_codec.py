"""Tests for frame-of-reference encoding and the FOR-blocked run."""

from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.for_codec import HEADER_BYTES, ForRun, for_encode


class TestForEncode:
    def test_roundtrip_sorted(self):
        values = [100, 105, 110, 250]
        block = for_encode(values)
        assert block.to_list() == values

    def test_roundtrip_unsorted(self):
        values = [50, 10, 99, 10]
        block = for_encode(values)
        assert block.to_list() == values

    def test_base_is_minimum(self):
        block = for_encode([7, 3, 9])
        assert block.base == 3

    def test_random_access(self):
        block = for_encode([1000, 1001, 1050])
        assert block[0] == 1000
        assert block[2] == 1050
        assert len(block) == 3

    def test_empty(self):
        block = for_encode([])
        assert len(block) == 0
        assert block.to_list() == []

    def test_single_value(self):
        block = for_encode([42])
        assert block[0] == 42

    def test_negative_values(self):
        values = [-100, -50, -75]
        assert for_encode(values).to_list() == values

    def test_size_benefits_from_clustering(self):
        clustered = for_encode(list(range(10**12, 10**12 + 256)))
        spread = for_encode(list(range(0, 256 * 2**40, 2**40)))
        assert clustered.size_bytes() < spread.size_bytes()

    def test_size_includes_base(self):
        block = for_encode([5])
        assert block.size_bytes() >= 8


@settings(max_examples=80)
@given(st.lists(st.integers(min_value=-(2**60), max_value=2**60), max_size=150))
def test_roundtrip_property(values):
    block = for_encode(values)
    assert block.to_list() == values
    for index, value in enumerate(values):
        assert block[index] == value


RUN_PAIRS = st.dictionaries(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=2**61),
    max_size=300,
).map(lambda mapping: sorted(mapping.items()))


@settings(max_examples=60, deadline=None)
@given(RUN_PAIRS, st.sampled_from([1, 5, 32, 256]), st.lists(st.integers(-(2**41), 2**41)))
def test_run_read_path_matches_its_pairs(pairs, block_entries, probes):
    """Every read of a :class:`ForRun` agrees with the plain pairs, at the
    leaf's and the static stage's block lengths and at odd ones."""
    run = ForRun(pairs, block_entries)
    mapping = dict(pairs)
    keys = [key for key, _ in pairs]
    assert run.to_pairs() == pairs
    assert run.num_entries() == len(pairs)
    assert run.num_blocks() == -(-len(pairs) // block_entries)
    assert (run.min_key(), run.max_key()) == ((keys[0], keys[-1]) if keys else (None, None))
    # Each block's first and last key, and their neighbours: the edges of
    # the directory bisect and of the in-block search.
    edges = keys[::block_entries] + keys[block_entries - 1 :: block_entries] + keys[-1:]
    probes = sorted(probes + keys[::7] + [key + step for key in edges for step in (-1, 0, 1)])
    for key in probes:
        assert run.lookup(key) == mapping.get(key)
        assert run._find(key) == (bisect_left(keys, key), key in mapping)
    for key in probes[:20]:
        tail = [pair for pair in pairs if pair[0] >= key]
        assert run.pairs_from(key, len(pairs)) == tail
        assert run.pairs_from(key, 9) == tail[:9]
    blocks = run._key_blocks + run._value_blocks
    assert run.size_bytes() == HEADER_BYTES + sum(block.size_bytes() for block in blocks)


@settings(max_examples=40, deadline=None)
@given(
    RUN_PAIRS.filter(bool),
    st.sampled_from([32, 256]),
    st.data(),
)
def test_pairs_from_is_a_slice_of_to_pairs(pairs, block_entries, data):
    """``pairs_from(start, limit)`` is ``to_pairs()[i : i + limit]``, ``i``
    the first key >= ``start``: from every key, from one past the last,
    and for limits that end inside the first block, one block on and two
    or more on (0, 1 and >= 2 block edges crossed)."""
    run = ForRun(pairs, block_entries)
    everything = run.to_pairs()
    keys = [key for key, _ in pairs]
    for index, start in enumerate(keys + [keys[-1] + 1]):
        to_edge = block_entries - index % block_entries
        limit = data.draw(
            st.sampled_from(
                [1, to_edge, to_edge + 1, to_edge + block_entries + 1, len(pairs)]
            )
        )
        assert run.pairs_from(start, limit) == everything[index : index + limit]
        # A start between two keys reads like the key after it.
        assert run.pairs_from(start - 1, limit)[:1] == everything[
            bisect_left(keys, start - 1) :
        ][:1]
