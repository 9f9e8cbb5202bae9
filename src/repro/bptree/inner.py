"""B+-tree inner nodes.

Inner nodes use the universal encoding throughout (the paper adapts leaf
encodings only — leaves hold all keys and values and dominate the
footprint).  A node with ``n`` separator keys has ``n + 1`` children;
child ``i`` covers keys strictly below ``keys[i]``, the last child covers
the rest.
"""

from __future__ import annotations

from typing import List, Union

from repro.bptree.leaves import LeafNode

_HEADER_BYTES = 16
_KEY_BYTES = 8
_POINTER_BYTES = 8

Child = Union["InnerNode", LeafNode]


class InnerNode:
    """A routing node: sorted separator keys and child pointers."""

    __slots__ = ("keys", "children", "lock")

    def __init__(self, keys: List[int], children: List[Child]) -> None:
        self.lock = None  # OlcBPlusTree attaches a VersionedLock here
        if len(children) != len(keys) + 1:
            raise ValueError(
                f"inner node needs len(keys)+1 children, got {len(keys)} keys "
                f"and {len(children)} children"
            )
        self.keys = keys
        self.children = children

    def insert_child(self, index: int, separator: int, right_child: Child) -> None:
        """After child ``index`` split, register its new right sibling."""
        self.keys.insert(index, separator)
        self.children.insert(index + 1, right_child)

    def is_overfull(self, fanout: int) -> bool:
        """Return True when the node exceeds ``fanout`` children."""
        return len(self.children) > fanout

    def split(self) -> tuple:
        """Split into (left, separator, right); self becomes the left node."""
        middle = len(self.keys) // 2
        separator = self.keys[middle]
        right = InnerNode(self.keys[middle + 1 :], self.children[middle + 1 :])
        self.keys = self.keys[:middle]
        self.children = self.children[: middle + 1]
        return self, separator, right

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return (
            _HEADER_BYTES
            + len(self.keys) * _KEY_BYTES
            + len(self.children) * _POINTER_BYTES
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InnerNode(keys={len(self.keys)}, children={len(self.children)})"
