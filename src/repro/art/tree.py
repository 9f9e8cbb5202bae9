"""The Adaptive Radix Tree over byte-string keys.

Implements the full ART design: adaptive node types (via
:mod:`repro.art.nodes`), path compression (each inner node carries a
compressed prefix), and lazy expansion (single-key subtrees collapse to a
leaf holding the complete key).  Keys are arbitrary ``bytes``; callers
must ensure no key is a strict prefix of another (append a terminator
byte for variable-length keys — :func:`terminated` does exactly that).

Traversal work is counted as ``art_visit`` events in :attr:`ART.counters`
for the cost model.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.art.nodes import Node4, Node16, Node48, Node256
from repro.obs import runtime as _obs_runtime
from repro.obs.introspect import IndexFamily
from repro.sim.counters import OpCounters

_LEAF_HEADER_BYTES = 16


def terminated(key: bytes) -> bytes:
    """Append the 0x00 terminator used for variable-length key sets."""
    return key + b"\x00"


class ARTLeaf:
    """Lazy-expansion leaf: the complete key plus its value."""

    __slots__ = ("key", "value")

    def __init__(self, key: bytes, value: int) -> None:
        self.key = key
        self.value = value

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return _LEAF_HEADER_BYTES + len(self.key)


#: Precomputed ``leaf_probe:<node kind>`` span names by terminal node
#: type (RA004: telemetry names are literal tables, never formatted on
#: the hot path).  ``type(None)`` falls through to the miss name.
_PROBE_EVENT_MISS = "leaf_probe:none"
_PROBE_EVENTS = {
    cls: f"leaf_probe:{cls.__name__.lower()}"
    for cls in (ARTLeaf, Node4, Node16, Node48, Node256)
}


def _common_prefix_length(a: bytes, b: bytes) -> int:
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return index
    return limit


class ART(IndexFamily):
    """Adaptive Radix Tree with inserts, deletes, lookups, and scans."""

    stats_family = "art"
    key_type = bytes

    def __init__(self, counters: Optional[OpCounters] = None) -> None:
        self._root: Optional[object] = None
        self._num_keys = 0
        self.counters = counters if counters is not None else OpCounters()

    @classmethod
    def from_sorted(cls, pairs, counters: Optional[OpCounters] = None) -> "ART":
        """Build from sorted unique (key, value) pairs."""
        tree = cls(counters)
        for key, value in pairs:
            tree.insert(key, value)
        return tree

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        """Return the value stored under ``key``, or None.

        Under an installed tracer the same descent emits a sampled
        ``lookup`` span with ``descent`` / ``leaf_probe:<node kind>``
        children; ``nodes_visited`` is the count the descent flushes to
        ``art_visit`` once at the end.
        """
        telemetry = _obs_runtime._ACTIVE
        tracer = telemetry.tracer if telemetry is not None else None
        span = (
            tracer.op_start("lookup", family=self.stats_family)
            if tracer is not None
            else None
        )
        node = self._root
        depth = 0
        visits = 0
        value: Optional[int] = None
        while node is not None:
            visits += 1
            if isinstance(node, ARTLeaf):
                if node.key == key:
                    value = node.value
                break
            prefix = node.prefix
            if prefix:
                if key[depth : depth + len(prefix)] != prefix:
                    break
                depth += len(prefix)
            if depth >= len(key):
                break
            node = node.find_child(key[depth])
            depth += 1
        if visits:
            self.counters.counts["art_visit"] += visits
        if span is not None:
            tracer.event("descent", nodes_visited=visits, depth=depth)
            tracer.event(
                _PROBE_EVENTS.get(type(node), _PROBE_EVENT_MISS),
                hit=value is not None,
            )
            tracer.end(span)
        return value

    def __contains__(self, key: bytes) -> bool:
        return self.lookup(key) is not None

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key: bytes, value: int) -> bool:
        """Insert; returns False (with overwrite) when the key existed."""
        existed_before = self._num_keys
        self._root = self._insert(self._root, key, value, 0)
        return self._num_keys > existed_before

    def _insert(self, node: Optional[object], key: bytes, value: int, depth: int):
        if node is None:
            self._num_keys += 1
            return ARTLeaf(key, value)
        if isinstance(node, ARTLeaf):
            if node.key == key:
                node.value = value
                return node
            # Split: new Node4 with the common prefix of both suffixes.
            common = _common_prefix_length(node.key[depth:], key[depth:])
            branch = Node4(key[depth : depth + common])
            split_depth = depth + common
            if split_depth >= len(node.key) or split_depth >= len(key):
                raise ValueError(
                    f"key {key!r} is a prefix of {node.key!r}; "
                    "terminate variable-length keys first"
                )
            branch.set_child(node.key[split_depth], node)
            branch.set_child(key[split_depth], ARTLeaf(key, value))
            self._num_keys += 1
            return branch
        prefix = node.prefix
        if prefix:
            common = _common_prefix_length(prefix, key[depth:])
            if common < len(prefix):
                # Prefix mismatch: split the compressed path.
                parent = Node4(prefix[:common])
                node.prefix = prefix[common + 1 :]
                parent.set_child(prefix[common], node)
                if depth + common >= len(key):
                    raise ValueError(
                        f"key {key!r} is a prefix of an existing path; "
                        "terminate variable-length keys first"
                    )
                parent.set_child(key[depth + common], ARTLeaf(key, value))
                self._num_keys += 1
                return parent
            depth += len(prefix)
        if depth >= len(key):
            raise ValueError(
                f"key {key!r} is a prefix of an existing path; "
                "terminate variable-length keys first"
            )
        label = key[depth]
        child = node.find_child(label)
        if child is not None:
            replacement = self._insert(child, key, value, depth + 1)
            if replacement is not child:
                node.set_child(label, replacement)
            return node
        new_leaf = ARTLeaf(key, value)
        self._num_keys += 1
        if not node.set_child(label, new_leaf):
            node = node.grow()
            node.set_child(label, new_leaf)
        return node

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns False when it was absent."""
        removed, self._root = self._delete(self._root, key, 0)
        if removed:
            self._num_keys -= 1
        return removed

    def _delete(self, node: Optional[object], key: bytes, depth: int):
        if node is None:
            return False, None
        if isinstance(node, ARTLeaf):
            if node.key == key:
                return True, None
            return False, node
        prefix = node.prefix
        if prefix:
            if key[depth : depth + len(prefix)] != prefix:
                return False, node
            depth += len(prefix)
        if depth >= len(key):
            return False, node
        label = key[depth]
        child = node.find_child(label)
        if child is None:
            return False, node
        removed, replacement = self._delete(child, key, depth + 1)
        if not removed:
            return False, node
        if replacement is None:
            node.delete_child(label)
        elif replacement is not child:
            node.set_child(label, replacement)
        # Path-compression restore: a one-child inner node merges into
        # its surviving child.
        if node.num_children() == 1:
            only_label, only_child = next(iter(node.children_items()))
            if isinstance(only_child, ARTLeaf):
                return True, only_child
            only_child.prefix = node.prefix + bytes([only_label]) + only_child.prefix
            return True, only_child
        if node.num_children() == 0:
            return True, None
        return True, node.shrink_if_sparse()

    # ------------------------------------------------------------------
    # Ordered iteration and scans
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[bytes, int]]:
        """Yield all ``(key, value)`` pairs in key order."""
        yield from self._iterate(self._root)

    def _iterate(self, node: Optional[object]) -> Iterator[Tuple[bytes, int]]:
        if node is None:
            return
        if isinstance(node, ARTLeaf):
            yield node.key, node.value
            return
        for _, child in node.children_items():
            yield from self._iterate(child)

    def successor(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        """The smallest stored (key, value) with key >= ``key``."""
        result = self.scan(key, 1)
        return result[0] if result else None

    def prefix_items(self, prefix: bytes) -> Iterator[Tuple[bytes, int]]:
        """All (key, value) pairs whose key starts with ``prefix``,
        in key order."""
        node = self._root
        depth = 0
        while node is not None and not isinstance(node, ARTLeaf):
            node_prefix = node.prefix
            if node_prefix:
                remaining = prefix[depth : depth + len(node_prefix)]
                if node_prefix[: len(remaining)] != remaining:
                    return
                depth += len(node_prefix)
            if depth >= len(prefix):
                break
            node = node.find_child(prefix[depth])
            depth += 1
        if node is None:
            return
        for key, value in self._iterate(node):
            if key.startswith(prefix):
                yield key, value

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        """Up to ``count`` pairs with key >= ``start_key``, in key order."""
        if count <= 0:
            return []
        result: List[Tuple[bytes, int]] = []
        self._scan(self._root, b"", start_key, count, result)
        return result

    def _scan(
        self,
        node: Optional[object],
        path: bytes,
        start_key: bytes,
        count: int,
        result: List[Tuple[bytes, int]],
    ) -> None:
        if node is None or len(result) >= count:
            return
        self.counters.counts["art_visit"] += 1
        if isinstance(node, ARTLeaf):
            if node.key >= start_key:
                result.append((node.key, node.value))
            return
        path = path + node.prefix
        # Prune subtrees that end before the start key: the largest key in
        # this subtree starts with ``path`` + 0xFF... ; a cheap safe bound
        # is to skip only when even path + b"\xff"*pad < start_key prefix.
        if path < start_key[: len(path)]:
            return
        for label, child in node.children_items():
            if len(result) >= count:
                return
            self._scan(child, path + bytes([label]), start_key, count, result)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        """Number of indexed keys."""
        return self._num_keys

    @property
    def root(self) -> Optional[object]:
        """The root node."""
        return self._root

    def size_bytes(self) -> int:
        """Modeled footprint of all nodes and leaves."""
        total = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            total += node.size_bytes()
            if not isinstance(node, ARTLeaf):
                stack.extend(child for _, child in node.children_items())
        return total

    def encoding_census(self) -> dict:
        """Node counts by type name (for size breakdowns and tests)."""
        census: dict = {}
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            name = type(node).__name__
            census[name] = census.get(name, 0) + 1
            if not isinstance(node, ARTLeaf):
                stack.extend(child for _, child in node.children_items())
        return census

    def stats(self) -> dict:
        """The uniform stats dict plus the tree height."""
        stats = super().stats()
        stats["height"] = self.height()
        return stats

    def height(self) -> int:
        """Maximum node depth (leaves included)."""

        def depth_of(node: Optional[object]) -> int:
            if node is None:
                return 0
            if isinstance(node, ARTLeaf):
                return 1
            return 1 + max(
                (depth_of(child) for _, child in node.children_items()), default=0
            )

        return depth_of(self._root)
