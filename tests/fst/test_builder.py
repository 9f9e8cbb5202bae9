"""Tests for BFS trie construction: the per-level columns.

Every row is held to the trie's definition (:func:`reference_rows`), not
to a second implementation of the common-prefix pass.
"""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fst.builder import build_trie_levels
from repro.fst.trie import FST
from tests.fst.test_kernel import email_pairs, wide_pairs


def build(keys):
    return build_trie_levels([(key, index) for index, key in enumerate(keys)])


def row_tuple(row):
    return bytes(row.labels), bytes(row.has_child), bytes(row.louds), row.values, row.nodes


def reference_rows(pairs):
    """Level ``d``'s nodes are the sorted distinct ``d``-byte prefixes of
    the keys longer than ``d``; a node's labels are the sorted distinct
    next bytes; a label has a child iff some key continues past it, and
    otherwise holds the value of the key it ends."""
    value_of = dict(pairs)
    rows = []
    for depth in range(max((len(key) for key in value_of), default=0)):
        deeper = [key for key in value_of if len(key) > depth]
        labels, has_child, louds, values = bytearray(), bytearray(), bytearray(), []
        for node in sorted({key[:depth] for key in deeper}):
            below = {key[: depth + 1] for key in deeper if key.startswith(node)}
            for rank, path in enumerate(sorted(below)):
                labels.append(path[depth])
                louds.append(rank == 0)
                continues = any(len(key) > depth + 1 and key.startswith(path) for key in deeper)
                has_child.append(continues)
                if not continues:
                    values.append(value_of[path])
        rows.append((bytes(labels), bytes(has_child), bytes(louds), values, louds.count(1)))
    return rows


def prefix_free(raw):
    """Sorted, unique, and no key a prefix of its successor (hence of any
    later key)."""
    keys = sorted(set(raw))
    return [key for key, after in zip(keys, keys[1:] + [b""]) if not after.startswith(key)]


class TestBuildTrieLevels:
    def test_single_key(self):
        levels = build_trie_levels([(b"ab", 7)])
        assert levels.height == 2
        assert levels.num_keys == 1
        assert [row_tuple(row) for row in levels.levels] == [
            (b"a", b"\x01", b"\x01", [], 1),
            (b"b", b"\x00", b"\x01", [7], 1),
        ]

    def test_shared_prefixes_single_node_per_level(self):
        levels = build([b"aa", b"ab", b"ba"])
        assert levels.level_node_counts() == [1, 2]
        root = levels.levels[0]
        assert (root.labels, root.louds) == (b"ab", b"\x01\x00")

    def test_bfs_order_within_level(self):
        levels = build([b"ax", b"ay", b"bw", b"bz"])
        # Level 1 holds the 'a' node before the 'b' node (BFS order),
        # each with its labels ascending and a LOUDS bit at its first.
        level_one = levels.levels[1]
        assert level_one.labels == b"xywz"
        assert level_one.louds == b"\x01\x00\x01\x00"
        assert level_one.nodes == 2

    def test_values_in_label_order(self):
        levels = build_trie_levels([(b"aa", 10), (b"ab", 11), (b"b", 12)])
        assert levels.levels[0].values == [12]
        assert levels.levels[1].values == [10, 11]

    def test_empty(self):
        levels = build_trie_levels([])
        assert levels.height == 0
        assert levels.num_keys == 0
        assert levels.level_node_counts() == []

    def test_average_fanout(self):
        levels = build([b"aa", b"ab", b"ba", b"bb"])
        assert levels.average_fanout(0) == 2.0
        assert levels.average_fanout(1) == 2.0

    def test_level_node_counts(self):
        keys = [bytes([a, b]) for a in range(3) for b in range(4)]
        levels = build(keys)
        assert levels.level_node_counts() == [1, 3]

    def test_node_counts_are_the_louds_ones(self):
        keys = [bytes([a, b]) for a in range(3) for b in range(2)]
        levels = build(keys)
        assert [len(row.labels) for row in levels.levels] == [3, 6]
        assert [row.louds.count(1) for row in levels.levels] == levels.level_node_counts()
        assert [row.louds[0] for row in levels.levels] == [1, 1]

    # Each error keeps its type and message: an unsorted input reports the
    # order before any prefix, and a prefix reports the shortest one.
    def test_unsorted_rejected(self):
        for keys in ([b"b", b"a"], [b"ab", b"a"], [b"a", b"ab", b"0"]):
            with pytest.raises(ValueError, match="^keys must be strictly sorted and unique$"):
                build(keys)

    def test_duplicate_rejected(self):
        for keys in ([b"a", b"a"], [b"", b""]):
            with pytest.raises(ValueError, match="^keys must be strictly sorted and unique$"):
                build(keys)

    def test_prefix_violation_rejected(self):
        for keys, prefix in [
            ([b"a", b"ab"], b"a"),  # adjacent
            ([b"a", b"aa", b"ab"], b"a"),  # prefixes a non-adjacent key too
            ([b"a", b"b", b"c", b"cd", b"d"], b"c"),  # not at the front
            ([b"abc", b"abcd", b"b", b"bc"], b"b"),  # the shallower one wins
            ([b""], b""),  # an empty key alone
            ([b"", b"a"], b""),  # an empty key first
        ]:
            with pytest.raises(ValueError) as raised:
                build(keys)
            assert str(raised.value) == (
                f"key {prefix!r} is a prefix of another key; terminate variable-length keys first"
            )


keys_strategy = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=5).map(lambda key: bytes(byte & 3 for byte in key)),
        st.binary(min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=40,
).map(prefix_free)


@settings(max_examples=200, deadline=None)
@given(keys_strategy)
@example([b"k"])
@example([bytes([byte]) for byte in range(0, 256, 5)])
@example([b"\x00", b"\x01\x00", b"\x01\x01"])
@example([key for key, _ in wide_pairs()])
@example([key for key, _ in email_pairs(300, 11)])
def test_rows_match_the_definition(keys):
    pairs = [(key, index * 3 - 7) for index, key in enumerate(keys)]
    assert [row_tuple(row) for row in build_trie_levels(pairs).levels] == reference_rows(pairs)


def test_the_build_peaks_far_below_one_object_per_node():
    # 20 000 e-mail-like keys make ~156 000 trie nodes; a build that
    # allocates a Python object (and lists) per node peaks near 60 MiB.
    pairs = email_pairs(20_000, 5)
    tracemalloc.start()
    try:
        FST(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20
