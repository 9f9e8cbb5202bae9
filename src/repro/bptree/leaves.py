"""B+-tree leaf encodings (Figure 8) and the stable leaf wrapper.

Three interchangeable storage classes implement the paper's leaf layouts:

* :class:`GappedStorage` — the traditional universal encoding: a fixed
  number of pre-allocated slots with gaps; all access types are cheap but
  the footprint never shrinks (modeled 4 KiB per leaf at capacity 255).
* :class:`PackedStorage` — keys and values densely packed; reads, updates
  and deletes are cheap, inserts shift the arrays.
* :class:`SuccinctStorage` — frame-of-reference + bit packing for keys
  and values in 32-entry blocks (a :class:`~repro.succinct.for_codec
  .ForRun`, the run the Dual-Stage static stage also uses); still
  randomly accessible (binary search works without decompressing), and a
  mutation edits the packed blocks it changes: an overwrite one field, an
  insert or delete the touched block plus a shift of one entry through
  each later block.

A :class:`LeafNode` wraps one storage and gives the leaf a *stable
identity* across encoding migrations — the adaptation manager tracks the
wrapper, so historic access statistics survive migrations exactly as the
paper requires (Section 4.2.2: "we retain the historic access
statistics").
"""

from __future__ import annotations

import bisect
import enum
from typing import List, Optional, Sequence, Tuple

from repro.faults.injector import fault_point
from repro.succinct.for_codec import (
    HEADER_BYTES,
    ForBlock,
    ForRun,
    _frame_holds,
    _ones,
    _rebased,
    _remove_key,
    _remove_value,
    _replace_value,
    _rewidth,
    _single,
    _splice,
    _spliced_encode,
)

DEFAULT_LEAF_CAPACITY = 255
_SLOT_BYTES = 16  # 8-byte key + 8-byte value

#: What a storage's ``insert`` did, found in its one search.  LEAF_FULL is
#: the only falsy outcome: nothing was written and the caller splits.
LEAF_FULL = 0
INSERTED = 1
OVERWROTE = 2


class LeafEncoding(enum.Enum):
    """The three leaf layouts, ordered from compact to fast elsewhere."""

    SUCCINCT = "succinct"
    PACKED = "packed"
    GAPPED = "gapped"

    def __str__(self) -> str:
        return self.value


#: Precomputed ``leaf_probe:<encoding>`` span names (RA004: telemetry
#: names are literal tables, never formatted on the hot path).
LEAF_PROBE_EVENTS = {
    encoding: f"leaf_probe:{encoding.value}" for encoding in LeafEncoding
}


class _SortedPairStorage:
    """Shared behaviour of the two plain (uncompressed) leaf layouts."""

    __slots__ = ("keys", "values", "capacity")

    def __init__(self, pairs: Sequence[Tuple[int, int]], capacity: int) -> None:
        if len(pairs) > capacity:
            raise ValueError(f"{len(pairs)} entries exceed leaf capacity {capacity}")
        self.keys: List[int] = [key for key, _ in pairs]
        self.values: List[int] = [value for _, value in pairs]
        self.capacity = capacity
        if any(a >= b for a, b in zip(self.keys, self.keys[1:])):
            raise ValueError("leaf pairs must be strictly sorted by key")

    def num_entries(self) -> int:
        """Number of stored entries."""
        return len(self.keys)

    def min_key(self) -> Optional[int]:
        """The smallest stored key, or None when empty."""
        return self.keys[0] if self.keys else None

    def max_key(self) -> Optional[int]:
        """The largest stored key, or None when empty."""
        return self.keys[-1] if self.keys else None

    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return self.values[index]
        return None

    def insert(self, key: int, value: int) -> int:
        """Insert or overwrite in one search; returns :data:`LEAF_FULL`
        (nothing changed, caller splits), :data:`INSERTED` or
        :data:`OVERWROTE`."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            self.values[index] = value
            return OVERWROTE
        if len(self.keys) >= self.capacity:
            return LEAF_FULL
        self.keys.insert(index, key)
        self.values.insert(index, value)
        return INSERTED

    def update(self, key: int, value: int) -> bool:
        """Overwrite the value of an existing ``key``; False if absent."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            self.values[index] = value
            return True
        return False

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False when it was absent."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            del self.keys[index]
            del self.values[index]
            return True
        return False

    def to_pairs(self) -> List[Tuple[int, int]]:
        """Return all ``(key, value)`` pairs as a list."""
        return list(zip(self.keys, self.values))

    def pairs_from(self, start_key: int, limit: int) -> List[Tuple[int, int]]:
        """Up to ``limit`` pairs with key >= ``start_key``: one slice per
        array (an OLC scan validates the leaf once per call)."""
        start = bisect.bisect_left(self.keys, start_key)
        end = start + limit
        return list(zip(self.keys[start:end], self.values[start:end]))


class GappedStorage(_SortedPairStorage):
    """Fixed-capacity slotted layout; size is paid for every slot."""

    encoding = LeafEncoding.GAPPED
    #: Counter names, spelled out: formatting the enum costs a Python call.
    visit_event = "leaf_visit:gapped"
    write_event = "leaf_write:gapped"

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return HEADER_BYTES + self.capacity * _SLOT_BYTES


class PackedStorage(_SortedPairStorage):
    """Dense layout; size tracks the live entry count."""

    encoding = LeafEncoding.PACKED
    visit_event = "leaf_visit:packed"
    write_event = "leaf_write:packed"

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return HEADER_BYTES + self.num_entries() * _SLOT_BYTES


#: Entries per FOR block of a Succinct leaf.
_FOR_BLOCK_ENTRIES = 32


class SuccinctStorage(ForRun):
    """Block-wise FOR + bit-packed layout; random access, no decompression.

    A :class:`~repro.succinct.for_codec.ForRun` of 32-entry blocks, whose
    read path it inherits; the leaf adds the capacity and the writes.

    A write touches only the blocks whose contents change, and edits
    each in its packed buffer with a few big-int operations (the kernels
    in :mod:`repro.succinct.for_codec`).  An overwrite replaces one
    field; an insert or delete splices one field into or cuts one out of
    the touched block, and every later block — its entries move one
    slot, chunk boundaries stay at multiples of 32 — takes one entry in
    and hands one on.  A value below a block's base rebases the block's
    other fields in place.  A block is re-encoded only where an edit
    cannot tell its new width or base without reading every field, so
    the blocks always equal, one for one, a from-scratch encode of the
    same pairs.
    """

    encoding = LeafEncoding.SUCCINCT
    visit_event = "leaf_visit:succinct"
    write_event = "leaf_write:succinct"

    __slots__ = ("capacity",)

    def __init__(self, pairs: Sequence[Tuple[int, int]], capacity: int) -> None:
        if len(pairs) > capacity:
            raise ValueError(f"{len(pairs)} entries exceed leaf capacity {capacity}")
        super().__init__(pairs, _FOR_BLOCK_ENTRIES)
        self.capacity = capacity

    def _overwrite(self, index: int, value: int) -> None:
        """Replace the value in slot ``index``: one field of its block."""
        block_index, offset = divmod(index, _FOR_BLOCK_ENTRIES)
        block, grown = _replace_value(self._value_blocks[block_index], offset, value)
        self._size_bytes += grown
        self._value_blocks[block_index] = block

    def _publish(
        self,
        first: int,
        key_tail: List[ForBlock],
        value_tail: List[ForBlock],
        grown: int,
    ) -> None:
        """Make ``key_tail`` / ``value_tail`` the blocks ``first`` onwards;
        the writer counted the ``grown`` modeled bytes as it built them.

        The new blocks were built aside and are put in place with one
        slice assignment per array, so an optimistic (OLC) reader sees the
        old blocks, the new ones, or — between the assignments — a mix
        that its version check or the ``IndexError`` it already restarts
        on rejects.
        """
        self._key_blocks[first:] = key_tail
        self._value_blocks[first:] = value_tail
        self._block_min_keys[first:] = [block.base for block in key_tail]
        self._size_bytes += grown

    def insert(self, key: int, value: int) -> int:
        """Insert or overwrite in one search; returns :data:`LEAF_FULL`
        (nothing changed, caller splits), :data:`INSERTED` or
        :data:`OVERWROTE`.

        The pair is spliced into the touched block at its offset; every
        later block (all of them full but the last) takes the entry the
        block before it hands on in front, as its new base, and hands on
        its own last one.  The loop edits both packed buffers of each
        block in place: a key block's fields grow by the distance to its
        new base, a value below a value block's base rebases that block
        (``_rebased``), and a block whose width moves is re-packed
        (``_rewidth``).  Only a value block whose base field leaves, or
        whose width shrinks or grows by more than a bit, is re-encoded.
        The loop adds up the modeled bytes of the blocks whose length or
        width moves as it goes.
        """
        index, found = self._find(key)
        if found:
            self._overwrite(index, value)
            return OVERWROTE
        if self._num_entries >= self.capacity:
            return LEAF_FULL
        first, offset = divmod(index, _FOR_BLOCK_ENTRIES)
        key_blocks = self._key_blocks
        value_blocks = self._value_blocks
        key_tail: List[ForBlock] = []
        value_tail: List[ForBlock] = []
        grown = 0
        carry, carried = key, value
        for block_index in range(first, len(key_blocks)):
            keys = key_blocks[block_index]
            values = value_blocks[block_index]
            key_base, key_buffer, key_width = keys.base, keys.buffer, keys.width
            value_base, value_buffer = values.base, values.buffer
            value_width = values.width
            length = keys.length
            full = length == _FOR_BLOCK_ENTRIES
            gone = None
            if full:  # hand the last entry on
                length -= 1
                kept = length * key_width
                out = key_base + (key_buffer >> kept)
                key_buffer &= (1 << kept) - 1
                kept = length * value_width
                gone = value_buffer >> kept
                value_buffer &= (1 << kept) - 1
                out_value = value_base + gone
            # Sorted keys keep their largest delta last: it gives the width.
            if offset:
                delta = carry - key_base
                if offset == length:
                    width = delta.bit_length()
                else:
                    width = (key_buffer >> (length - 1) * key_width).bit_length()
                if width != key_width:
                    key_buffer = _rewidth(
                        key_buffer, _FOR_BLOCK_ENTRIES, key_width, width
                    )
                key_buffer = _splice(key_buffer, offset * width, width, delta)
                key_block = ForBlock(key_base, key_buffer, length + 1, width)
            else:  # the carried key is the new base: every field grows
                shift = key_base - carry
                width = ((key_buffer >> (length - 1) * key_width) + shift).bit_length()
                if width != key_width:
                    key_buffer = _rewidth(
                        key_buffer, _FOR_BLOCK_ENTRIES, key_width, width
                    )
                key_buffer = (key_buffer + shift * _ones(width, length)) << width
                key_block = ForBlock(carry, key_buffer, length + 1, width)
            delta = carried - value_base
            width = value_width
            if delta < 0:  # the carried value is the new base
                shift = -delta
                buffer = _rebased(value_buffer, length, width, shift)
                if buffer is None:  # a field outgrew the width: try one bit more
                    width = max(width + 1, shift.bit_length())
                    buffer = _rebased(
                        _rewidth(value_buffer, _FOR_BLOCK_ENTRIES, value_width, width),
                        length,
                        width,
                        shift,
                    )
                value_base, delta = carried, 0
            elif delta >> width and gone != 0:  # the new maximum, wider
                width = delta.bit_length()
                buffer = _rewidth(value_buffer, _FOR_BLOCK_ENTRIES, value_width, width)
            elif gone is None or _frame_holds(
                width, gone, value_buffer, length, delta
            ):
                buffer = value_buffer
            else:  # the leaving field was the only 0, or the only wide one
                buffer = None
            if buffer is None:
                value_block = _spliced_encode(values, length, offset, carried)
            else:
                if offset:
                    buffer = _splice(buffer, offset * width, width, delta)
                else:
                    buffer = buffer << width | delta
                value_block = ForBlock(value_base, buffer, length + 1, width)
            key_tail.append(key_block)
            value_tail.append(value_block)
            moved = key_block.width != key_width or value_block.width != value_width
            if moved or not full:
                grown += (
                    key_block.size_bytes()
                    + value_block.size_bytes()
                    - keys.size_bytes()
                    - values.size_bytes()
                )
                if not full:
                    break
            carry, carried = out, out_value
            offset = 0
        else:  # a full last block (or none) spills a 1-entry block
            key_tail.append(_single(carry))
            value_tail.append(_single(carried))
            grown += key_tail[-1].size_bytes() + value_tail[-1].size_bytes()
        self._publish(first, key_tail, value_tail, grown)
        self._num_entries += 1
        return INSERTED

    def update(self, key: int, value: int) -> bool:
        """Overwrite the value of an existing ``key``; False if absent."""
        index, found = self._find(key)
        if not found:
            return False
        self._overwrite(index, value)
        return True

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False when it was absent.

        The mirror of :meth:`insert`: the pair is cut out of the touched
        block, and each block takes the next block's first entry at its
        end, by ``_remove_key`` / ``_remove_value``.
        """
        index, found = self._find(key)
        if not found:
            return False
        first, offset = divmod(index, _FOR_BLOCK_ENTRIES)
        key_blocks = self._key_blocks
        value_blocks = self._value_blocks
        last = len(key_blocks) - 1
        key_tail: List[ForBlock] = []
        value_tail: List[ForBlock] = []
        grown = 0
        for block_index in range(first, last + 1):
            keys = key_blocks[block_index]
            values = value_blocks[block_index]
            grown -= keys.size_bytes() + values.size_bytes()
            next_key = next_value = None
            if block_index < last:
                next_key = key_blocks[block_index + 1].base
                next_value = value_blocks[block_index + 1][0]
            key_block = _remove_key(keys, offset, next_key)
            if key_block is not None:  # None: the last block's only entry went
                value_block = _remove_value(values, offset, next_value)
                grown += key_block.size_bytes() + value_block.size_bytes()
                key_tail.append(key_block)
                value_tail.append(value_block)
            offset = 0
        self._publish(first, key_tail, value_tail, grown)
        self._num_entries -= 1
        return True


_STORAGE_CLASSES = {
    LeafEncoding.GAPPED: GappedStorage,
    LeafEncoding.PACKED: PackedStorage,
    LeafEncoding.SUCCINCT: SuccinctStorage,
}

class LeafNode:
    """A leaf with stable identity and an interchangeable storage encoding.

    The adaptation manager uses the wrapper as the tracked identifier;
    :meth:`migrate_to` swaps the storage in place, so tracked statistics
    and the parent's child pointer both remain valid.
    """

    __slots__ = ("leaf_id", "storage", "next_leaf", "lock")

    def __init__(
        self,
        pairs: Sequence[Tuple[int, int]],
        encoding: LeafEncoding,
        capacity: int = DEFAULT_LEAF_CAPACITY,
        leaf_id: int = 0,
    ) -> None:
        # Handed out by the owning tree's allocator, so what the manager's
        # Bloom filter hashes depends on the tree's history alone and not
        # on what else the process built; a leaf outside a tree keeps 0.
        self.leaf_id = leaf_id
        self.storage = _STORAGE_CLASSES[encoding](pairs, capacity)
        self.next_leaf: Optional["LeafNode"] = None
        self.lock = None  # OlcBPlusTree attaches a VersionedLock here

    # Identity semantics: leaves hash/compare by object identity, which is
    # the Python analogue of the paper's pointer identifiers.
    def __hash__(self) -> int:
        return self.leaf_id

    def __eq__(self, other: object) -> bool:
        return self is other

    @property
    def encoding(self) -> LeafEncoding:
        """The current physical encoding."""
        return self.storage.encoding

    @property
    def capacity(self) -> int:
        """The structure's current capacity."""
        return self.storage.capacity

    def num_entries(self) -> int:
        """Number of stored entries."""
        return self.storage.num_entries()

    def min_key(self) -> Optional[int]:
        """The smallest stored key, or None when empty."""
        return self.storage.min_key()

    def max_key(self) -> Optional[int]:
        """The largest stored key, or None when empty."""
        return self.storage.max_key()

    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None."""
        return self.storage.lookup(key)

    def insert(self, key: int, value: int) -> int:
        """Insert or overwrite; :data:`LEAF_FULL`, :data:`INSERTED` or
        :data:`OVERWROTE` (see the storages)."""
        return self.storage.insert(key, value)

    def update(self, key: int, value: int) -> bool:
        """Overwrite the value of an existing ``key``; False if absent."""
        return self.storage.update(key, value)

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False when it was absent."""
        return self.storage.delete(key)

    def to_pairs(self) -> List[Tuple[int, int]]:
        """Return all ``(key, value)`` pairs as a list."""
        return self.storage.to_pairs()

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return self.storage.size_bytes()

    def migrate_to(self, encoding: LeafEncoding) -> bool:
        """Re-encode this leaf transactionally; False when already so.

        The replacement storage is built *off to the side* and verified
        against the live one before a single-assignment swap, so an
        exception anywhere in the re-encode (including an injected fault)
        leaves the leaf exactly as it was.
        """
        if encoding is self.encoding:
            return False
        fault_point("bptree.migrate.read")
        pairs = self.storage.to_pairs()
        fault_point("bptree.migrate.encode")
        replacement = _STORAGE_CLASSES[encoding](pairs, self.storage.capacity)
        if (
            replacement.num_entries() != len(pairs)
            or replacement.min_key() != self.storage.min_key()
            or replacement.max_key() != self.storage.max_key()
        ):  # pragma: no cover - storage classes are checked; last line of defense
            raise AssertionError(
                f"re-encode of leaf {self.leaf_id} to {encoding} lost entries"
            )
        fault_point("bptree.migrate.swap")
        self.storage = replacement
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LeafNode(id={self.leaf_id}, encoding={self.encoding}, "
            f"entries={self.num_entries()})"
        )
