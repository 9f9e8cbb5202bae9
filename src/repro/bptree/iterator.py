"""Stateful B+-tree iterators (Section 3.1.2 / 4.1.3).

The paper's interface tracks "lookups, inserts, or iterator increments
and dereferencing operators"; scans in its B+-tree hold an iterator that
keeps a pointer to the current parent so sampled leaf accesses can be
tracked with context.  :class:`TreeIterator` is that object: positioned
with :meth:`seek`, advanced with :meth:`advance` (or Python iteration),
it walks the leaf chain and — on the adaptive tree — reports each *leaf
transition* to the adaptation manager as a sampled scan access.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bptree.leaves import LeafNode
from repro.core.access import AccessType


class TreeIterator:
    """A forward iterator over a B+-tree's leaf chain.

    The iterator is *fail-soft* under mutation: it holds a direct leaf
    reference, so deletes and encoding migrations do not invalidate it,
    while splits may cause a few entries to be re-visited (the snapshot
    semantics of the paper's implementation under OLC are out of scope
    for the single-threaded iterator).
    """

    def __init__(self, tree, start_key: Optional[int] = None) -> None:
        self._tree = tree
        self._leaf: Optional[LeafNode] = None
        self._entries: Tuple = ()
        self._position = 0
        self._exhausted = True
        if start_key is not None:
            self.seek(start_key)
        else:
            self.seek_first()

    # ------------------------------------------------------------------
    # Positioning
    # ------------------------------------------------------------------
    def seek(self, key: int) -> "TreeIterator":
        """Position at the first entry with key >= ``key``."""
        leaf, _ = self._tree.find_leaf(key)
        self._load_leaf(leaf, from_key=key)
        self._skip_empty_leaves()
        return self

    def seek_first(self) -> "TreeIterator":
        """Position at the smallest entry."""
        node = self._tree.root
        from repro.bptree.inner import InnerNode

        while isinstance(node, InnerNode):
            node = node.children[0]
        self._load_leaf(node, from_key=None)
        self._skip_empty_leaves()
        return self

    def _load_leaf(self, leaf: Optional[LeafNode], from_key: Optional[int]) -> None:
        self._leaf = leaf
        if leaf is None:
            self._entries = ()
            self._position = 0
            self._exhausted = True
            return
        self._tree._leaf_accessed(leaf, None, AccessType.SCAN)
        if from_key is None:
            self._entries = tuple(leaf.to_pairs())
        else:
            self._entries = tuple(leaf.entries_from(from_key))
        self._position = 0
        self._exhausted = False

    def _skip_empty_leaves(self) -> None:
        while not self._exhausted and self._position >= len(self._entries):
            next_leaf = self._leaf.next_leaf if self._leaf is not None else None
            self._load_leaf(next_leaf, from_key=None)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def valid(self) -> bool:
        """True while the iterator points at an entry."""
        return not self._exhausted

    def entry(self) -> Tuple[int, int]:
        """The (key, value) under the cursor (dereference)."""
        if self._exhausted:
            raise StopIteration("iterator exhausted")
        return self._entries[self._position]

    @property
    def key(self) -> int:
        """The key under the cursor."""
        return self.entry()[0]

    @property
    def value(self) -> int:
        """The value under the cursor."""
        return self.entry()[1]

    def advance(self) -> bool:
        """Move to the next entry; False when the iterator is exhausted."""
        if self._exhausted:
            return False
        self._position += 1
        self._skip_empty_leaves()
        return not self._exhausted

    # ------------------------------------------------------------------
    # Python iteration protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> "TreeIterator":
        return self

    def __next__(self) -> Tuple[int, int]:
        if self._exhausted:
            raise StopIteration
        current = self.entry()
        self.advance()
        return current
