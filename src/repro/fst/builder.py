"""Trie construction from sorted keys, in LOUDS (BFS) order.

The FST encodings consume trie labels strictly in breadth-first order —
that order *is* the node numbering the rank/select navigation relies on.
:func:`build_trie_levels` turns sorted unique byte-string keys into one
row of columns per level: the level's labels, one has-child and one
LOUDS (node-start) flag per label, and the values of its terminal labels.

Sorted keys fix the whole trie through ``lcp[i]``, the length of the
common prefix of key ``i`` with its predecessor.  Key ``i`` adds one
label at each depth ``d`` in ``[lcp[i], len(key))``: at ``d == lcp[i]``
it joins its predecessor's node (LOUDS bit 0, except for the first key),
deeper it opens a new node (LOUDS bit 1).  Its label has a child except
at the last depth, which carries its value.  Appending in key order is
BFS order: a level's nodes are its distinct key prefixes, and sorted keys
meet those prefixes sorted, which is the order their parents' labels
number them.

Keys must be prefix-free (no key a strict prefix of another); append a
terminator byte to variable-length keys (``repro.art.tree.terminated``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


@dataclass
class TrieLevel:
    """One level's columns, in BFS order (one byte per label)."""

    labels: bytearray = field(default_factory=bytearray)
    #: 1 where the label leads to a child node, 0 where it ends a key.
    has_child: bytearray = field(default_factory=bytearray)
    #: 1 where the label is its node's first.
    louds: bytearray = field(default_factory=bytearray)
    #: The values of the level's terminal labels, in label order.
    values: List[int] = field(default_factory=list)

    @property
    def nodes(self) -> int:
        """Number of nodes on this level."""
        return self.louds.count(1)


@dataclass
class TrieLevels:
    """The trie as one :class:`TrieLevel` row per level, top-down."""

    levels: List[TrieLevel]
    num_keys: int

    @property
    def height(self) -> int:
        """The tree height (leaves included)."""
        return len(self.levels)

    def level_node_counts(self) -> List[int]:
        """Nodes per level, top-down."""
        return [level.nodes for level in self.levels]

    def average_fanout(self, level: int) -> float:
        """Mean labels per node on ``level``."""
        row = self.levels[level]
        nodes = row.nodes
        return len(row.labels) / nodes if nodes else 0.0


def build_trie_levels(pairs: Sequence[Tuple[bytes, int]]) -> TrieLevels:
    """Build BFS-ordered trie levels from sorted unique (key, value) pairs.

    One pass over the keys, then the checks: an unsorted or duplicate key
    raises ``ValueError``; failing that, so does a key that prefixes
    another (the message names the shortest, first in key order).
    """
    if not pairs:
        return TrieLevels(levels=[], num_keys=0)
    width = max(len(key) for key, _ in pairs)
    rows = [TrieLevel() for _ in range(width)]
    unsorted = False
    prefix: Optional[bytes] = None
    previous = b""
    previous_bits = 0
    for index, (key, value) in enumerate(pairs):
        if key <= previous:  # out of order, or the empty first key
            if index:
                unsorted = True
            else:
                prefix = key
            continue
        # ``lcp[index]``: where the two keys, zero-padded to ``width``,
        # first differ, capped by the predecessor's length.
        length = len(key)
        bits = int.from_bytes(key, "big") << ((width - length) << 3)
        common = min(width - (((bits ^ previous_bits).bit_length() + 7) >> 3), len(previous))
        if common == len(previous) and index:  # the predecessor prefixes this key
            if prefix is None or common < len(prefix):
                prefix = previous
        last = length - 1
        row = rows[common]
        row.labels.append(key[common])
        row.louds.append(not index)
        if common < last:
            row.has_child.append(1)
            for depth in range(common + 1, last):
                row = rows[depth]
                row.labels.append(key[depth])
                row.has_child.append(1)
                row.louds.append(1)
            row = rows[last]
            row.labels.append(key[last])
            row.louds.append(1)
        row.has_child.append(0)
        row.values.append(value)
        previous, previous_bits = key, bits
    if unsorted:
        raise ValueError("keys must be strictly sorted and unique")
    if prefix is not None:
        raise ValueError(
            f"key {prefix!r} is a prefix of another key; "
            "terminate variable-length keys first"
        )
    return TrieLevels(levels=rows, num_keys=len(pairs))
