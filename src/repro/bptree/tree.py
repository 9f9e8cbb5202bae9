"""A full B+-tree over 64-bit integer keys and values.

Supports point lookups, inserts (with node splits), updates, deletes
(lazy, no rebalancing — matching the long-running-system behaviour the
paper motivates, where deletes leave gaps), range scans over the leaf
chain, and sorted bulk loading at a configurable fill factor.

All leaves share a single :class:`~repro.bptree.leaves.LeafEncoding`; the
single-encoding trees are the paper's *Gapped*, *Packed*, and *Succinct*
baselines.  The adaptive tree subclasses this one and migrates leaf
encodings at run-time.

Every structural step is counted in :attr:`BPlusTree.counters` so the
cost model can price traversals (see :mod:`repro.sim`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bptree.inner import Child, InnerNode
from repro.bptree.leaves import (
    DEFAULT_LEAF_CAPACITY,
    INSERTED,
    LEAF_PROBE_EVENTS,
    LeafEncoding,
    LeafNode,
)
from repro.core.access import AccessType
from repro.obs import runtime as _obs_runtime
from repro.obs.introspect import IndexFamily
from repro.sim.counters import OpCounters

DEFAULT_INNER_FANOUT = 64
DEFAULT_FILL_FACTOR = 0.70


class BPlusTree(IndexFamily):
    """B+-tree with one leaf encoding for all leaves."""

    stats_family = "bptree"
    key_type = int

    def __init__(
        self,
        leaf_encoding: LeafEncoding = LeafEncoding.GAPPED,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        inner_fanout: int = DEFAULT_INNER_FANOUT,
    ) -> None:
        if leaf_capacity < 4:
            raise ValueError(f"leaf capacity must be >= 4, got {leaf_capacity}")
        if inner_fanout < 4:
            raise ValueError(f"inner fanout must be >= 4, got {inner_fanout}")
        self.leaf_encoding = leaf_encoding
        self.leaf_capacity = leaf_capacity
        self.inner_fanout = inner_fanout
        self.counters = OpCounters()
        # Per tree, so a leaf's id (what the adaptation manager's Bloom
        # filter hashes) is the same whatever else the process built.
        self._leaf_ids = itertools.count(1)
        self._root: Child = self._new_leaf([], leaf_encoding)
        self._num_keys = 0
        self._num_leaves = 1
        self._height = 1
        self._leaf_bytes = self._root.size_bytes()
        self._inner_bytes_cache: Optional[int] = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_leaf(
        self, pairs: Sequence[Tuple[int, int]], encoding: LeafEncoding
    ) -> LeafNode:
        return LeafNode(pairs, encoding, self.leaf_capacity, next(self._leaf_ids))

    @classmethod
    def bulk_load(
        cls,
        pairs: Sequence[Tuple[int, int]],
        leaf_encoding: LeafEncoding = LeafEncoding.GAPPED,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        inner_fanout: int = DEFAULT_INNER_FANOUT,
        fill_factor: float = DEFAULT_FILL_FACTOR,
    ) -> "BPlusTree":
        """Build a tree from sorted unique pairs at ``fill_factor`` occupancy.

        The 70% default matches the occupancy the paper assumes for its
        leaf-size comparisons (Table 1).
        """
        tree = cls(leaf_encoding, leaf_capacity, inner_fanout)
        tree._bulk_load_into(pairs, fill_factor)
        return tree

    def _bulk_load_into(self, pairs: Sequence[Tuple[int, int]], fill_factor: float) -> None:
        if not 0.1 <= fill_factor <= 1.0:
            raise ValueError(f"fill factor must be in [0.1, 1.0], got {fill_factor}")
        if self._num_keys:
            raise ValueError("bulk load requires an empty tree")
        pairs = list(pairs)
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a >= b:
                raise ValueError("bulk load requires strictly sorted unique keys")
        if not pairs:
            return
        per_leaf = max(1, int(self.leaf_capacity * fill_factor))
        leaves: List[LeafNode] = []
        for start in range(0, len(pairs), per_leaf):
            leaf = self._new_leaf(pairs[start : start + per_leaf], self.leaf_encoding)
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        self._num_keys = len(pairs)
        self._num_leaves = len(leaves)
        self._root, self._height = self._build_inner_levels(leaves)
        self._leaf_bytes = sum(leaf.size_bytes() for leaf in leaves)
        self._inner_bytes_cache = None

    def _build_inner_levels(self, nodes: List[Child]) -> Tuple[Child, int]:
        height = 1
        level: List[Child] = nodes
        per_node = max(2, int(self.inner_fanout * DEFAULT_FILL_FACTOR))
        while len(level) > 1:
            parents: List[Child] = []
            for start in range(0, len(level), per_node):
                group = level[start : start + per_node]
                if len(group) == 1:
                    # A lone trailing child joins the previous parent.
                    previous = parents[-1]
                    assert isinstance(previous, InnerNode)
                    separator = self._subtree_min_key(group[0])
                    previous.keys.append(separator)
                    previous.children.append(group[0])
                    continue
                keys = [self._subtree_min_key(child) for child in group[1:]]
                parents.append(InnerNode(keys, list(group)))
            level = parents
            height += 1
        return level[0], height

    @staticmethod
    def _subtree_min_key(node: Child) -> int:
        while isinstance(node, InnerNode):
            node = node.children[0]
        min_key = node.min_key()
        if min_key is None:
            raise ValueError("cannot compute separator for an empty leaf")
        return min_key

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def _descend(self, key: int) -> Tuple[LeafNode, List[Tuple[InnerNode, int]]]:
        """Walk to the leaf for ``key``; return it and the (node, child
        index) path for split propagation (only an insert needs it)."""
        path: List[Tuple[InnerNode, int]] = []
        node: Child = self._root
        while isinstance(node, InnerNode):
            index = bisect_right(node.keys, key)
            path.append((node, index))
            node = node.children[index]
        if path:
            self.counters.counts["inner_visit"] += len(path)
        return node, path

    def find_leaf(self, key: int) -> Tuple[LeafNode, Optional[InnerNode]]:
        """The leaf responsible for ``key`` and its direct parent."""
        node: Child = self._root
        parent: Optional[InnerNode] = None
        while isinstance(node, InnerNode):
            parent = node
            node = node.children[bisect_right(node.keys, key)]
        if parent is not None:  # every leaf sits at depth height - 1
            self.counters.counts["inner_visit"] += self._height - 1
        return node, parent

    def _leaf_accessed(
        self, leaf: LeafNode, parent: Optional[InnerNode], access: AccessType
    ) -> None:
        """Hook: ``leaf`` (a child of ``parent``; None for the root and for
        leaf-chain steps) was reached once as ``access``.  Called after the
        visit is counted and before the leaf is read or written.  The
        plain tree ignores it."""

    def _before_leaf_insert(self, leaf: LeafNode, parent: Optional[InnerNode]) -> None:
        """Hook: ``leaf`` is about to take inserts (called once per descent,
        before the visit is counted, so it may re-encode the leaf)."""

    def _on_leaf_emptied(self, leaf: LeafNode) -> None:
        """Hook: a delete removed the last entry of ``leaf``."""

    def _end_lookup_span(self, tracer, span, leaf: LeafNode, value: Optional[int]) -> None:
        """Close a sampled ``lookup`` span with its ``descent`` and
        ``leaf_probe:<encoding>`` children (every leaf sits at the same
        depth, so the height gives the inner visits)."""
        tracer.event("descent", inner_visits=self._height - 1, height=self._height)
        tracer.event(LEAF_PROBE_EVENTS[leaf.encoding], hit=value is not None)
        tracer.end(span)

    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None.

        Under an installed tracer the same path emits a sampled ``lookup``
        span; with telemetry off that costs one global read and a branch.
        :meth:`find_leaf`'s walk is inlined and the visits charged in place.
        """
        telemetry = _obs_runtime._ACTIVE
        tracer = telemetry.tracer if telemetry is not None else None
        span = (
            tracer.op_start("lookup", family=self.stats_family)
            if tracer is not None
            else None
        )
        node: Child = self._root
        parent: Optional[InnerNode] = None
        while isinstance(node, InnerNode):
            parent = node
            node = node.children[bisect_right(node.keys, key)]
        counts = self.counters.counts
        if parent is not None:
            counts["inner_visit"] += self._height - 1
        counts[node.storage.visit_event] += 1
        self._leaf_accessed(node, parent, AccessType.READ)
        # Read after the hook: an adaptation phase it runs may re-encode
        # the leaf, swapping its storage.
        value = node.storage.lookup(key)
        if span is not None:
            self._end_lookup_span(tracer, span, node, value)
        return value

    def insert(self, key: int, value: int) -> bool:
        """Insert ``key``; returns False when the key already existed (the
        value is overwritten either way)."""
        leaf, path = self._descend(key)
        parent = path[-1][0] if path else None
        self._before_leaf_insert(leaf, parent)
        self.counters.counts[leaf.storage.visit_event] += 1
        self._leaf_accessed(leaf, parent, AccessType.INSERT)
        self._count_leaf_write(leaf)
        before = leaf.size_bytes()
        outcome = leaf.insert(key, value)
        if not outcome:  # full, nothing written
            self._split_leaf(leaf, path)
            leaf, path = self._descend(key)
            before = leaf.size_bytes()
            outcome = leaf.insert(key, value)
            if not outcome:  # pragma: no cover - split guarantees room
                raise AssertionError("leaf still full after split")
        self._leaf_bytes += leaf.size_bytes() - before
        new = outcome == INSERTED
        if new:
            self._num_keys += 1
        return new

    def update(self, key: int, value: int) -> bool:
        """Overwrite the value of an existing ``key``; False if absent."""
        leaf, parent = self.find_leaf(key)
        self.counters.counts[leaf.storage.visit_event] += 1
        self._leaf_accessed(leaf, parent, AccessType.UPDATE)
        self._count_leaf_write(leaf)
        before = leaf.size_bytes()
        updated = leaf.update(key, value)
        self._leaf_bytes += leaf.size_bytes() - before
        return updated

    def delete(self, key: int) -> bool:
        """Delete ``key`` (lazy: leaves are never merged)."""
        leaf, parent = self.find_leaf(key)
        self.counters.counts[leaf.storage.visit_event] += 1
        self._leaf_accessed(leaf, parent, AccessType.DELETE)
        self._count_leaf_write(leaf)
        before = leaf.size_bytes()
        removed = leaf.delete(key)
        self._leaf_bytes += leaf.size_bytes() - before
        if removed:
            self._num_keys -= 1
            if leaf.num_entries() == 0:
                self._on_leaf_emptied(leaf)
        return removed

    def _count_leaf_write(self, leaf: LeafNode) -> None:
        """Charge one leaf write as the cost model prices it: the paper's
        C++ Succinct leaf re-encodes every entry (Figure 16 reproduces
        from that), whatever fewer blocks this implementation touches."""
        storage = leaf.storage
        self.counters.counts[storage.write_event] += 1
        if storage.encoding is LeafEncoding.SUCCINCT:
            self.counters.counts["leaf_rebuild_entry"] += storage.num_entries()

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(self, start_key: int, count: int) -> List[Tuple[int, int]]:
        """Up to ``count`` pairs with key >= ``start_key``, in key order
        (each visited leaf is one scan access, Section 4.1.3).  Every leaf
        on the chain is sliced from ``start_key``: the ones after the first
        hold only larger keys, so that takes them whole."""
        if count <= 0:
            return []
        leaf: Optional[LeafNode] = self.find_leaf(start_key)[0]
        counts = self.counters.counts
        result: List[Tuple[int, int]] = []
        while leaf is not None and len(result) < count:
            storage = leaf.storage
            counts[storage.visit_event] += 1
            result += storage.pairs_from(start_key, count - len(result))
            self._leaf_accessed(leaf, None, AccessType.SCAN)
            leaf = leaf.next_leaf
        return result

    def items(self) -> Iterator[Tuple[int, int]]:
        """All pairs in key order."""
        node: Child = self._root
        while isinstance(node, InnerNode):
            node = node.children[0]
        current: Optional[LeafNode] = node
        while current is not None:
            yield from current.to_pairs()
            current = current.next_leaf

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def _split_leaf(self, leaf: LeafNode, path: List[Tuple[InnerNode, int]]) -> None:
        self.counters.counts["leaf_split"] += 1
        pairs = leaf.to_pairs()
        middle = len(pairs) // 2
        before = leaf.size_bytes()
        # The left half stays in the existing wrapper so tracked identity
        # and the parent pointer survive; the right half is a new leaf.
        right = self._new_leaf(pairs[middle:], leaf.encoding)
        right.next_leaf = leaf.next_leaf
        leaf.storage = type(leaf.storage)(pairs[:middle], leaf.capacity)
        leaf.next_leaf = right
        self._leaf_bytes += leaf.size_bytes() + right.size_bytes() - before
        self._inner_bytes_cache = None
        self._num_leaves += 1
        separator = pairs[middle][0]
        self._on_leaf_split(leaf, right)
        self._insert_into_parent(leaf, separator, right, path)

    def _on_leaf_split(self, left: LeafNode, right: LeafNode) -> None:
        """Hook for subclasses (the adaptive tree propagates context)."""

    def _insert_into_parent(
        self,
        left: Child,
        separator: int,
        right: Child,
        path: List[Tuple[InnerNode, int]],
    ) -> None:
        if not path:
            self._root = InnerNode([separator], [left, right])
            self._height += 1
            return
        parent, child_index = path[-1]
        parent.insert_child(child_index, separator, right)
        if parent.is_overfull(self.inner_fanout):
            left_node, parent_separator, right_node = parent.split()
            self._insert_into_parent(
                left_node, parent_separator, right_node, path[:-1]
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        """Number of indexed keys."""
        return self._num_keys

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return self._num_leaves

    @property
    def height(self) -> int:
        """The tree height (leaves included)."""
        return self._height

    @property
    def root(self) -> Child:
        """The root node."""
        return self._root

    def leaves(self) -> Iterator[LeafNode]:
        """Yield all leaf nodes in key order."""
        node: Child = self._root
        while isinstance(node, InnerNode):
            node = node.children[0]
        current: Optional[LeafNode] = node
        while current is not None:
            yield current
            current = current.next_leaf

    def inner_nodes(self) -> Iterator[InnerNode]:
        """Yield all inner nodes (preorder)."""
        stack: List[Child] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, InnerNode):
                yield node
                stack.extend(node.children)

    def size_bytes(self) -> int:
        """Modeled footprint: all inner nodes plus all leaves.

        Leaf bytes are tracked incrementally at every mutation site; inner
        bytes are cached and recomputed only after structural changes.
        """
        if self._inner_bytes_cache is None:
            self._inner_bytes_cache = sum(node.size_bytes() for node in self.inner_nodes())
        return self._inner_bytes_cache + self._leaf_bytes

    def note_leaf_resized(self, delta_bytes: int) -> None:
        """Subclasses report out-of-band leaf size changes (migrations)."""
        self._leaf_bytes += delta_bytes

    def encoding_census(self) -> Dict[LeafEncoding, Tuple[int, float]]:
        """Mapping encoding -> (leaf count, average modeled bytes)."""
        totals: Dict[LeafEncoding, Tuple[int, int]] = {}
        for leaf in self.leaves():
            count, total_bytes = totals.get(leaf.encoding, (0, 0))
            totals[leaf.encoding] = (count + 1, total_bytes + leaf.size_bytes())
        return {
            encoding: (count, total_bytes / count)
            for encoding, (count, total_bytes) in totals.items()
        }

    def stats(self) -> dict:
        """The uniform stats dict plus the tree's shape."""
        stats = super().stats()
        stats["height"] = self._height
        stats["num_leaves"] = self._num_leaves
        stats["leaf_encoding"] = str(self.leaf_encoding)
        return stats
