"""ART node types: Node4, Node16, Node48, and Node256.

The four layouts trade lookup method for space, exactly as in the ART
paper: Node4/Node16 store sorted label arrays (linear/binary search),
Node48 indirects through a 256-byte index, Node256 is a direct pointer
array.  Nodes grow to the next type when full and shrink when sparse.
``size_bytes`` models the C++ layouts (16-byte header with the
compressed path, labels, and 8-byte child pointers).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

_HEADER_BYTES = 16  # type tag, child count, prefix length, inline prefix
_POINTER_BYTES = 8


class ARTNode:
    """Base class: a compressed path plus label-indexed children."""

    __slots__ = ("prefix",)

    capacity: int = 0

    def __init__(self, prefix: bytes = b"") -> None:
        self.prefix = prefix

    # Subclasses implement: find_child, set_child, delete_child,
    # children_items, num_children, size_bytes.

    def find_child(self, label: int) -> Optional[object]:
        """Return the child stored under ``label``, or None."""
        raise NotImplementedError

    def set_child(self, label: int, child: object) -> bool:
        """Insert or replace; False when full (caller grows the node)."""
        raise NotImplementedError

    def delete_child(self, label: int) -> bool:
        """Remove the child under ``label``; True if it existed."""
        raise NotImplementedError

    def children_items(self) -> Iterator[Tuple[int, object]]:
        """(label, child) pairs in ascending label order."""
        raise NotImplementedError

    def num_children(self) -> int:
        """Return the number of stored children."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        raise NotImplementedError

    def grow(self) -> "ARTNode":
        """Copy into the next larger node type."""
        order = [Node4, Node16, Node48, Node256]
        index = order.index(type(self))
        if index == len(order) - 1:
            raise ValueError("Node256 cannot grow")
        bigger = order[index + 1](self.prefix)
        for label, child in self.children_items():
            bigger.set_child(label, child)
        return bigger

    def shrink_if_sparse(self) -> "ARTNode":
        """Copy into the smallest type that fits (after deletions)."""
        count = self.num_children()
        for node_class in (Node4, Node16, Node48, Node256):
            if count <= node_class.capacity:
                if node_class is type(self):
                    return self
                smaller = node_class(self.prefix)
                for label, child in self.children_items():
                    smaller.set_child(label, child)
                return smaller
        return self  # pragma: no cover


class _SortedArrayNode(ARTNode):
    """Shared layout of Node4 and Node16: parallel sorted arrays."""

    __slots__ = ("labels", "children")

    def __init__(self, prefix: bytes = b"") -> None:
        super().__init__(prefix)
        self.labels: List[int] = []
        self.children: List[object] = []

    def find_child(self, label: int) -> Optional[object]:
        """Return the child stored under ``label``, or None."""
        index = bisect.bisect_left(self.labels, label)
        if index < len(self.labels) and self.labels[index] == label:
            return self.children[index]
        return None

    def set_child(self, label: int, child: object) -> bool:
        """Insert or replace the child under ``label``; False when full."""
        index = bisect.bisect_left(self.labels, label)
        if index < len(self.labels) and self.labels[index] == label:
            self.children[index] = child
            return True
        if len(self.labels) >= self.capacity:
            return False
        self.labels.insert(index, label)
        self.children.insert(index, child)
        return True

    def delete_child(self, label: int) -> bool:
        """Remove the child under ``label``; True if it existed."""
        index = bisect.bisect_left(self.labels, label)
        if index < len(self.labels) and self.labels[index] == label:
            del self.labels[index]
            del self.children[index]
            return True
        return False

    def children_items(self) -> Iterator[Tuple[int, object]]:
        """Yield ``(label, child)`` pairs in ascending label order."""
        return iter(zip(self.labels, self.children))

    def num_children(self) -> int:
        """Return the number of stored children."""
        return len(self.labels)


class Node4(_SortedArrayNode):
    """4-slot node: linear search over a sorted label array."""

    capacity = 4

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return _HEADER_BYTES + 4 + 4 * _POINTER_BYTES


class Node16(_SortedArrayNode):
    """16-slot node: binary search over a sorted label array."""

    capacity = 16

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return _HEADER_BYTES + 16 + 16 * _POINTER_BYTES


class Node48(ARTNode):
    """256-byte label index into a 48-slot child array."""

    __slots__ = ("index", "children")

    capacity = 48

    def __init__(self, prefix: bytes = b"") -> None:
        super().__init__(prefix)
        self.index: List[int] = [-1] * 256
        self.children: List[object] = []

    def find_child(self, label: int) -> Optional[object]:
        """Return the child stored under ``label``, or None."""
        slot = self.index[label]
        return self.children[slot] if slot >= 0 else None

    def set_child(self, label: int, child: object) -> bool:
        """Insert or replace the child under ``label``; False when full."""
        slot = self.index[label]
        if slot >= 0:
            self.children[slot] = child
            return True
        if len(self.children) >= self.capacity:
            return False
        self.index[label] = len(self.children)
        self.children.append(child)
        return True

    def delete_child(self, label: int) -> bool:
        """Remove the child under ``label``; True if it existed."""
        slot = self.index[label]
        if slot < 0:
            return False
        last = len(self.children) - 1
        if slot != last:
            # Move the last child into the vacated slot to stay dense.
            self.children[slot] = self.children[last]
            for other_label in range(256):
                if self.index[other_label] == last:
                    self.index[other_label] = slot
                    break
        self.children.pop()
        self.index[label] = -1
        return True

    def children_items(self) -> Iterator[Tuple[int, object]]:
        """Yield ``(label, child)`` pairs in ascending label order."""
        for label in range(256):
            slot = self.index[label]
            if slot >= 0:
                yield label, self.children[slot]

    def num_children(self) -> int:
        """Return the number of stored children."""
        return len(self.children)

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return _HEADER_BYTES + 256 + 48 * _POINTER_BYTES


class Node256(ARTNode):
    """Direct 256-slot child array."""

    __slots__ = ("children", "_count")

    capacity = 256

    def __init__(self, prefix: bytes = b"") -> None:
        super().__init__(prefix)
        self.children: List[Optional[object]] = [None] * 256
        self._count = 0

    def find_child(self, label: int) -> Optional[object]:
        """Return the child stored under ``label``, or None."""
        return self.children[label]

    def set_child(self, label: int, child: object) -> bool:
        """Insert or replace the child under ``label``; False when full."""
        if self.children[label] is None:
            self._count += 1
        self.children[label] = child
        return True

    def delete_child(self, label: int) -> bool:
        """Remove the child under ``label``; True if it existed."""
        if self.children[label] is None:
            return False
        self.children[label] = None
        self._count -= 1
        return True

    def children_items(self) -> Iterator[Tuple[int, object]]:
        """Yield ``(label, child)`` pairs in ascending label order."""
        for label in range(256):
            child = self.children[label]
            if child is not None:
                yield label, child

    def num_children(self) -> int:
        """Return the number of stored children."""
        return self._count

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return _HEADER_BYTES + 256 * _POINTER_BYTES


def art_node_for_fanout(fanout: int, prefix: bytes = b"") -> ARTNode:
    """The smallest node type that holds ``fanout`` children — the rule
    ART applies at build time and the Hybrid Trie applies on expansion."""
    for node_class in (Node4, Node16, Node48, Node256):
        if fanout <= node_class.capacity:
            return node_class(prefix)
    raise ValueError(f"fanout {fanout} exceeds 256")
