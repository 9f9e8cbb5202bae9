"""B+-tree leaf encodings (Figure 8) and the stable leaf wrapper.

Three interchangeable storage classes implement the paper's leaf layouts:

* :class:`GappedStorage` — the traditional universal encoding: a fixed
  number of pre-allocated slots with gaps; all access types are cheap but
  the footprint never shrinks (modeled 4 KiB per leaf at capacity 255).
* :class:`PackedStorage` — keys and values densely packed; reads, updates
  and deletes are cheap, inserts shift the arrays.
* :class:`SuccinctStorage` — frame-of-reference + bit packing for keys
  and values in 32-entry blocks; still randomly accessible (binary search
  works without decompressing), and a mutation edits the packed blocks it
  changes: an overwrite one field, an insert or delete the touched block
  plus a shift of one entry through each later block.

A :class:`LeafNode` wraps one storage and gives the leaf a *stable
identity* across encoding migrations — the adaptation manager tracks the
wrapper, so historic access statistics survive migrations exactly as the
paper requires (Section 4.2.2: "we retain the historic access
statistics").
"""

from __future__ import annotations

import bisect
import enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.faults.injector import fault_point
from repro.succinct.bitpack import PackedIntArray
from repro.succinct.for_codec import ForBlock, for_encode

DEFAULT_LEAF_CAPACITY = 255
_HEADER_BYTES = 16
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

    def lookup_run(self, run: Sequence[int]) -> List[Optional[int]]:
        """Batched lookup of an ascending key run.

        Because the run is sorted, every search can start where the
        previous one ended (a monotone ``lo`` hint), so the searched
        range shrinks as the run advances instead of restarting at 0.
        """
        keys = self.keys
        values = self.values
        limit = len(keys)
        results: List[Optional[int]] = []
        append = results.append
        lo = 0
        for key in run:
            lo = bisect.bisect_left(keys, key, lo)
            if lo < limit and keys[lo] == key:
                append(values[lo])
            else:
                append(None)
        return results

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

    def entries_from(self, start_key: int) -> Iterator[Tuple[int, int]]:
        """Yield pairs with key >= ``start_key`` within this leaf."""
        index = bisect.bisect_left(self.keys, start_key)
        for position in range(index, len(self.keys)):
            yield self.keys[position], self.values[position]

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
        return _HEADER_BYTES + self.capacity * _SLOT_BYTES


class PackedStorage(_SortedPairStorage):
    """Dense layout; size tracks the live entry count."""

    encoding = LeafEncoding.PACKED
    visit_event = "leaf_visit:packed"
    write_event = "leaf_write:packed"

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return _HEADER_BYTES + self.num_entries() * _SLOT_BYTES


_FOR_BLOCK_ENTRIES = 32


def _encode_blocks(values: Sequence[int]) -> List[ForBlock]:
    """FOR-encode ``values`` in consecutive 32-entry chunks."""
    return [
        for_encode(values[start : start + _FOR_BLOCK_ENTRIES])
        for start in range(0, len(values), _FOR_BLOCK_ENTRIES)
    ]


def _decode_blocks(blocks: Sequence[ForBlock]) -> List[int]:
    values: List[int] = []
    for block in blocks:
        values.extend(block.to_list())
    return values


def _blocks_bytes(blocks: Sequence[ForBlock]) -> int:
    """:meth:`ForBlock.size_bytes` summed, read straight off each block's
    length and width."""
    total = 8 * len(blocks)
    for block in blocks:
        deltas = block.deltas
        total += (deltas._length * deltas._width + 7) >> 3
    return total


# ----------------------------------------------------------------------
# The write kernel: fields spliced into and cut out of a packed buffer
# ----------------------------------------------------------------------
# A block of ``n`` ``w``-bit fields is one int, field ``i`` at bit
# ``i * w``.  An insert splices one field into the touched block and
# moves every later entry one slot right: each later block takes the
# previous block's last entry in front (a splice at offset 0) and — when
# full — hands its own last entry on.  A delete cuts one field out and
# is the mirror image.  Each edit is a few big-int operations while the
# block keeps the width a fresh encode would pick; a new minimum moves
# the frame of reference, and every other field is rebased inside the
# buffer.  Only a block whose width changes, or whose base field leaves,
# is decoded and re-encoded (the fallback), so every block always equals
# ``for_encode`` of its entries.

#: Memo of :func:`_ones`, a pure function (the division costs up to 1 µs
#: at width 61); it holds one entry per width seen and block length.
_ONES: Dict[Tuple[int, int], int] = {}


def _ones(width: int, fields: int) -> int:
    """R(w, n): the value 1 in each of ``fields`` ``width``-bit fields."""
    ones = _ONES.get((width, fields))
    if ones is None:
        ones = ((1 << width * fields) - 1) // ((1 << width) - 1)
        _ONES[width, fields] = ones
    return ones


#: Memo of :func:`_lanes`, a pure function like :func:`_ones`.
_LANES: Dict[Tuple[int, int], Tuple[int, int, int, int, int]] = {}


def _lanes(width: int, fields: int) -> Tuple[int, int, int, int, int]:
    """What :func:`_rebased` reads ``fields`` ``width``-bit fields with:
    each field alone in a 2w-bit lane, the even fields in one set of
    lanes and the odd ones in another.  Returns R(2w) over the even
    lanes and over the odd ones, then per lane the mask of its field, of
    the carry bits above the field and of the field's top bit."""
    lanes = _LANES.get((width, fields))
    if lanes is None:
        even = _ones(2 * width, (fields + 1) // 2)
        field = even * ((1 << width) - 1)
        lanes = (
            even,
            _ones(2 * width, fields // 2),
            field,
            field << width,
            even << width - 1,
        )
        _LANES[width, fields] = lanes
    return lanes


def _rebased(buffer: int, fields: int, width: int, shift: int) -> Optional[int]:
    """``buffer`` with ``shift`` (> 0) added to each of its ``fields``
    fields — a value block whose base moves ``shift`` down — or None when
    a fresh encode would then pick another width: a field overflows
    ``width`` bits or, above width 1, no field keeps the top bit.

    Added in place, one field's carry would run into the next.  So the
    even and the odd fields are summed apart, each in a lane twice its
    width whose upper half catches the carry, and one AND per check
    reads every lane at once.
    """
    if shift >> width:  # every field would overflow
        return None
    ones_even, ones_odd, field, carry, top = _lanes(width, fields)
    even = (buffer & field) + shift * ones_even
    odd = ((buffer >> width) & field) + shift * ones_odd
    either = even | odd
    if either & carry or (width > 1 and not either & top):
        return None
    return even | odd << width


def _splice(buffer: int, bits: int, width: int, field: int) -> int:
    """``buffer`` with ``field`` spliced in at bit ``bits``; the fields
    from there on move one slot up."""
    low = buffer & ((1 << bits) - 1)
    return low | (buffer ^ low) << width | field << bits


def _cut(buffer: int, bits: int, width: int) -> Tuple[int, int]:
    """``buffer`` without its field at bit ``bits`` (the fields after it
    move one slot down), and that field."""
    low = buffer & ((1 << bits) - 1)
    high = buffer >> bits
    return low | (high >> width) << bits, high & ((1 << width) - 1)


def _block(base: int, buffer: int, length: int, width: int) -> ForBlock:
    """The block an edit built in ``buffer``."""
    return ForBlock(base, PackedIntArray._from_buffer(buffer, length, width))


def _single(value: int) -> ForBlock:
    """The block ``for_encode([value])`` builds."""
    return _block(value, 0, 1, 1)


def _frame_holds(width: int, gone: int, kept: int, fields: int, delta: int) -> bool:
    """Whether a value block keeps its base and width when the field
    ``gone`` leaves, the ``fields`` fields of ``kept`` stay and ``delta``
    (already known to fit ``width`` bits) joins: a 0 field must remain
    (the base is the minimum) and, above width 1, a field with the top
    bit (the width is the maximum's).  When nothing joins, ``delta`` 1
    stands in: it is neither 0 nor, above width 1, a top-bit field."""
    if not gone and delta:  # the leaving field may have been the only 0
        return False
    top = width - 1
    return bool(
        not top
        or delta >> top
        or not gone >> top
        or kept & (_ones(width, fields) << top)
    )


def _insert_key(
    block: ForBlock, offset: int, key: int
) -> Tuple[ForBlock, Optional[int]]:
    """``block`` with ``key`` spliced in at ``offset``, and the key that
    drops off its end when it was full (else None).  At offset 0 the key
    is the new base, so every field grows by the old base's distance."""
    deltas = block.deltas
    width, length, buffer = deltas._width, deltas._length, deltas._buffer
    base = block.base
    out = None
    if length == _FOR_BLOCK_ENTRIES:
        length -= 1
        kept = length * width
        out = base + (buffer >> kept)
        buffer &= (1 << kept) - 1
    # Keys are sorted, so the last field is the largest delta: the width
    # holds while it keeps the top bit.
    if offset:
        delta = key - base
        last = delta if offset == length else buffer >> (length - 1) * width
        if last >> width - 1 == 1:
            buffer = _splice(buffer, offset * width, width, delta)
            return _block(base, buffer, length + 1, width), out
    else:
        shift = base - key
        if (buffer >> (length - 1) * width) + shift >> width - 1 == 1:
            buffer = (buffer + shift * _ones(width, length)) << width
            return _block(key, buffer, length + 1, width), out
    keys = block.to_list()[:length]
    keys.insert(offset, key)
    return for_encode(keys), out


def _insert_value(
    block: ForBlock, offset: int, value: int
) -> Tuple[ForBlock, Optional[int]]:
    """:func:`_insert_key` for a value block (unsorted; base is the
    minimum).  A value below the base becomes the base, the other fields
    rebased in the buffer by :func:`_rebased`."""
    deltas = block.deltas
    width, length, buffer = deltas._width, deltas._length, deltas._buffer
    base = block.base
    out = gone = None
    if length == _FOR_BLOCK_ENTRIES:
        length -= 1
        kept = length * width
        gone = buffer >> kept
        buffer &= (1 << kept) - 1
        out = base + gone
    delta = value - base
    if delta < 0:
        rebased = _rebased(buffer, length, width, -delta)
        if rebased is not None:
            buffer = _splice(rebased, offset * width, width, 0)
            return _block(value, buffer, length + 1, width), out
    elif not delta >> width and (
        gone is None or _frame_holds(width, gone, buffer, length, delta)
    ):
        buffer = _splice(buffer, offset * width, width, delta)
        return _block(base, buffer, length + 1, width), out
    values = block.to_list()[:length]
    values.insert(offset, value)
    return for_encode(values), out


def _remove_key(block: ForBlock, offset: int, key: Optional[int]) -> Optional[ForBlock]:
    """``block`` without its key at ``offset`` and with ``key`` (above its
    last key; None: nothing) at the end; None when nothing is left.  At
    offset 0 the second key is the new base: every field shrinks by it."""
    deltas = block.deltas
    width, length, buffer = deltas._width, deltas._length, deltas._buffer
    length -= 1
    if not length:
        return None if key is None else _single(key)
    rest, _ = _cut(buffer, offset * width, width)
    shift = 0 if offset else rest & ((1 << width) - 1)
    base = block.base + shift
    if key is None:
        top = (rest >> (length - 1) * width) - shift
    else:
        top = key - base
    if top >> width - 1 == 1:
        rest -= shift * _ones(width, length)
        if key is not None:
            rest |= top << length * width
            length += 1
        return _block(base, rest, length, width)
    keys = block.to_list()
    del keys[offset]
    if key is not None:
        keys.append(key)
    return for_encode(keys)


def _remove_value(block: ForBlock, offset: int, value: Optional[int]) -> ForBlock:
    """:func:`_remove_key` for a value block that keeps an entry; a value
    below the base rebases the others as in :func:`_insert_value`."""
    deltas = block.deltas
    width, length, buffer = deltas._width, deltas._length, deltas._buffer
    length -= 1
    base = block.base
    rest, gone = _cut(buffer, offset * width, width)
    if value is None:
        if _frame_holds(width, gone, rest, length, 1):
            return _block(base, rest, length, width)
    else:
        delta = value - base
        if delta < 0:
            rebased = _rebased(rest, length, width, -delta)
            if rebased is not None:  # the new last field is the 0
                return _block(value, rebased, length + 1, width)
        elif not delta >> width and _frame_holds(width, gone, rest, length, delta):
            return _block(base, rest | delta << length * width, length + 1, width)
    values = block.to_list()
    del values[offset]
    if value is not None:
        values.append(value)
    return for_encode(values)


class SuccinctStorage:
    """Block-wise FOR + bit-packed layout; random access, no decompression.

    Entries are split into mini-blocks of 32; each block stores its own
    frame of reference and bit width for keys and values, so one distant
    outlier key cannot inflate the whole leaf's width — the behaviour of
    production FOR codecs and what yields the paper's ~73% savings.

    A write touches only the blocks whose contents change, and edits
    each in its packed buffer with a few big-int operations.  An
    overwrite replaces one field; an insert or delete splices one field
    into or cuts one out of the touched block, and every later block —
    its entries move one slot, chunk boundaries stay at multiples of 32
    — takes one entry in and hands one on.  A value below a block's base
    rebases the block's other fields in place.  A block whose width
    would change is re-encoded instead, so the blocks always equal, one
    for one, a from-scratch encode of the same pairs.
    """

    encoding = LeafEncoding.SUCCINCT
    visit_event = "leaf_visit:succinct"
    write_event = "leaf_write:succinct"

    __slots__ = (
        "_key_blocks",
        "_value_blocks",
        "_block_min_keys",
        "_num_entries",
        "_size_bytes",
        "capacity",
    )

    def __init__(self, pairs: Sequence[Tuple[int, int]], capacity: int) -> None:
        if len(pairs) > capacity:
            raise ValueError(f"{len(pairs)} entries exceed leaf capacity {capacity}")
        keys = [key for key, _ in pairs]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("leaf pairs must be strictly sorted by key")
        self.capacity = capacity
        self._key_blocks = _encode_blocks(keys)
        self._value_blocks = _encode_blocks([value for _, value in pairs])
        # Split keys array: each block's minimum, kept uncompressed so
        # _find can bisect it instead of paying a packed-array decode per
        # binary-search probe.
        self._block_min_keys = keys[::_FOR_BLOCK_ENTRIES]
        self._num_entries = len(keys)
        self._size_bytes = _HEADER_BYTES + _blocks_bytes(
            self._key_blocks + self._value_blocks
        )

    def num_entries(self) -> int:
        """Number of stored entries."""
        return self._num_entries

    def _key_at(self, index: int) -> int:
        block, offset = divmod(index, _FOR_BLOCK_ENTRIES)
        return self._key_blocks[block][offset]

    def _value_at(self, index: int) -> int:
        block, offset = divmod(index, _FOR_BLOCK_ENTRIES)
        return self._value_blocks[block][offset]

    def min_key(self) -> Optional[int]:
        """The smallest stored key, or None when empty."""
        return self._key_at(0) if self._num_entries else None

    def max_key(self) -> Optional[int]:
        """The largest stored key, or None when empty."""
        return self._key_at(self._num_entries - 1) if self._num_entries else None

    def _find(self, key: int) -> int:
        """Binary search over the blocked FOR layout (no decompression).

        First bisects the uncompressed per-block minimum keys to pick the
        one candidate block, then binary-searches inside it; only O(log
        block size) packed-array probes are paid instead of O(log n).
        """
        block_index = bisect.bisect_right(self._block_min_keys, key) - 1
        if block_index < 0:
            return 0
        block = self._key_blocks[block_index]
        lo, hi = 0, len(block)
        while lo < hi:
            mid = (lo + hi) // 2
            if block[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return block_index * _FOR_BLOCK_ENTRIES + lo

    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None."""
        index = self._find(key)
        if index < self._num_entries and self._key_at(index) == key:
            return self._value_at(index)
        return None

    def lookup_run(self, run: Sequence[int]) -> List[Optional[int]]:
        """Batched lookup of an ascending key run.

        Consecutive run keys usually land in the same FOR mini-block, so
        each touched block's keys are materialized once with a bulk
        decode and every key in the run bisects the plain list — instead
        of paying O(log block) packed-array probes per key.  Value
        blocks are only decoded when a key actually hits.
        """
        results: List[Optional[int]] = []
        append = results.append
        mins = self._block_min_keys
        cached_index = -1
        cached_keys: List[int] = []
        cached_values: Optional[List[int]] = None
        lo = 0
        for key in run:
            block_index = bisect.bisect_right(mins, key) - 1
            if block_index < 0:
                append(None)
                continue
            if block_index != cached_index:
                cached_index = block_index
                cached_keys = self._key_blocks[block_index].to_list()
                cached_values = None
                lo = 0
            lo = bisect.bisect_left(cached_keys, key, lo)
            if lo < len(cached_keys) and cached_keys[lo] == key:
                if cached_values is None:
                    cached_values = self._value_blocks[block_index].to_list()
                append(cached_values[lo])
            else:
                append(None)
        return results

    def _overwrite(self, index: int, value: int) -> None:
        """Replace the value in slot ``index``: one field of its packed
        block.  A value below the block's base is the new base, so its
        field is cut, the others rebased and a 0 spliced back.  When the
        block's width or base field moves, the block is re-encoded."""
        block_index, offset = divmod(index, _FOR_BLOCK_ENTRIES)
        old = self._value_blocks[block_index]
        deltas = old.deltas
        width, length, buffer = deltas._width, deltas._length, deltas._buffer
        bits = offset * width
        delta = value - old.base
        if delta < 0:
            rest, _ = _cut(buffer, bits, width)
            rebased = _rebased(rest, length - 1, width, -delta)
            if rebased is not None:
                buffer = _splice(rebased, bits, width, 0)
                self._value_blocks[block_index] = _block(value, buffer, length, width)
                return
        else:
            gone = (buffer >> bits) & ((1 << width) - 1)
            others = buffer ^ (gone << bits)
            if not delta >> width and _frame_holds(width, gone, others, length, delta):
                buffer = others | delta << bits
                self._value_blocks[block_index] = _block(old.base, buffer, length, width)
                return
        values = old.to_list()
        values[offset] = value
        new = for_encode(values)
        self._size_bytes += new.size_bytes() - old.size_bytes()
        self._value_blocks[block_index] = new

    def _publish(
        self, first: int, key_tail: List[ForBlock], value_tail: List[ForBlock]
    ) -> None:
        """Make ``key_tail`` / ``value_tail`` the blocks ``first`` onwards.

        The new blocks were built aside and are put in place with one
        slice assignment per array, so an optimistic (OLC) reader sees the
        old blocks, the new ones, or — between the assignments — a mix
        that its version check or the ``IndexError`` it already restarts
        on rejects.
        """
        key_blocks = self._key_blocks
        value_blocks = self._value_blocks
        self._size_bytes += _blocks_bytes(key_tail + value_tail) - _blocks_bytes(
            key_blocks[first:] + value_blocks[first:]
        )
        key_blocks[first:] = key_tail
        value_blocks[first:] = value_tail
        self._block_min_keys[first:] = [block.base for block in key_tail]

    def insert(self, key: int, value: int) -> int:
        """Insert or overwrite in one search; returns :data:`LEAF_FULL`
        (nothing changed, caller splits), :data:`INSERTED` or
        :data:`OVERWROTE`.

        The pair is spliced into the touched block at its offset; every
        later block (all of them full but the last) takes the entry the
        block before it hands on in front and hands on its own last one.
        :func:`_insert_key` / :func:`_insert_value` do both.
        """
        index = self._find(key)
        if index < self._num_entries and self._key_at(index) == key:
            self._overwrite(index, value)
            return OVERWROTE
        if self._num_entries >= self.capacity:
            return LEAF_FULL
        first, offset = divmod(index, _FOR_BLOCK_ENTRIES)
        key_blocks = self._key_blocks
        value_blocks = self._value_blocks
        key_tail: List[ForBlock] = []
        value_tail: List[ForBlock] = []
        carry: Optional[int] = key
        carried: Optional[int] = value
        for block_index in range(first, len(key_blocks)):
            key_block, carry = _insert_key(key_blocks[block_index], offset, carry)
            value_block, carried = _insert_value(
                value_blocks[block_index], offset, carried
            )
            key_tail.append(key_block)
            value_tail.append(value_block)
            offset = 0
        if carry is not None:  # a full last block spills a 1-entry block
            key_tail.append(_single(carry))
            value_tail.append(_single(carried))
        self._publish(first, key_tail, value_tail)
        self._num_entries += 1
        return INSERTED

    def update(self, key: int, value: int) -> bool:
        """Overwrite the value of an existing ``key``; False if absent."""
        index = self._find(key)
        if index >= self._num_entries or self._key_at(index) != key:
            return False
        self._overwrite(index, value)
        return True

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False when it was absent.

        The mirror of :meth:`insert`: the pair is cut out of the touched
        block, and each block takes the next block's first entry at its
        end, by :func:`_remove_key` / :func:`_remove_value`.
        """
        index = self._find(key)
        if index >= self._num_entries or self._key_at(index) != key:
            return False
        first, offset = divmod(index, _FOR_BLOCK_ENTRIES)
        key_blocks = self._key_blocks
        value_blocks = self._value_blocks
        last = len(key_blocks) - 1
        key_tail: List[ForBlock] = []
        value_tail: List[ForBlock] = []
        for block_index in range(first, last + 1):
            next_key = next_value = None
            if block_index < last:
                next_key = key_blocks[block_index + 1].base
                next_value = value_blocks[block_index + 1][0]
            key_block = _remove_key(key_blocks[block_index], offset, next_key)
            if key_block is not None:  # None: the last block's only entry went
                key_tail.append(key_block)
                value_tail.append(
                    _remove_value(value_blocks[block_index], offset, next_value)
                )
            offset = 0
        self._publish(first, key_tail, value_tail)
        self._num_entries -= 1
        return True

    def to_pairs(self) -> List[Tuple[int, int]]:
        """Return all ``(key, value)`` pairs as a list."""
        return list(
            zip(_decode_blocks(self._key_blocks), _decode_blocks(self._value_blocks))
        )

    def entries_from(self, start_key: int) -> Iterator[Tuple[int, int]]:
        """Yield pairs with key >= ``start_key`` within this leaf.

        Each touched block is decoded once, as :meth:`lookup_run` does.
        """
        first, offset = divmod(self._find(start_key), _FOR_BLOCK_ENTRIES)
        for block_index in range(first, len(self._key_blocks)):
            keys = self._key_blocks[block_index].to_list()
            values = self._value_blocks[block_index].to_list()
            yield from zip(keys[offset:], values[offset:])
            offset = 0

    def pairs_from(self, start_key: int, limit: int) -> List[Tuple[int, int]]:
        """Up to ``limit`` pairs with key >= ``start_key``, decoding only
        the blocks they come from."""
        first, offset = divmod(self._find(start_key), _FOR_BLOCK_ENTRIES)
        pairs: List[Tuple[int, int]] = []
        for block_index in range(first, len(self._key_blocks)):
            end = offset + limit - len(pairs)
            pairs += zip(
                self._key_blocks[block_index].to_list()[offset:end],
                self._value_blocks[block_index].to_list()[offset:end],
            )
            if len(pairs) >= limit:
                break
            offset = 0
        return pairs

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes (kept up to date
        wherever blocks are replaced, not re-summed per call)."""
        return self._size_bytes


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

    def lookup_run(self, run: Sequence[int]) -> List[Optional[int]]:
        """Batched lookup of an ascending key run (see the storages)."""
        return self.storage.lookup_run(run)

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

    def entries_from(self, start_key: int) -> Iterator[Tuple[int, int]]:
        """Yield pairs with key >= ``start_key`` within this leaf."""
        return self.storage.entries_from(start_key)

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
