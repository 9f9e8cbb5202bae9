"""Frame-of-reference (FOR) encoding: single blocks and blocked sorted runs.

The paper's Succinct leaf layout (Figure 8) stores the smallest key and
value separately and encodes the remaining entries as bit-packed deltas
against that frame of reference.  :func:`for_encode` produces that
representation; the result supports random access, so succinct layouts
stay binary-searchable without decompressing.

:class:`ForRun` is the one FOR-blocked sorted run of ``(key, value)``
pairs: the Succinct B+-tree leaf (32-entry blocks) and the Dual-Stage
index's compact static stage (256-entry blocks) are both built on it.
It owns the read path; the in-buffer write kernels below
(``_insert_*``, ``_remove_*``, ``_replace_value``) edit one block of a
run, and the leaf chooses which blocks they edit.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.succinct.bitpack import PackedIntArray

#: The modeled node header every sorted-pair layout pays.
HEADER_BYTES = 16


class ForBlock:
    """A FOR-encoded integer sequence.

    ``base`` is the frame of reference (the minimum of the input), and
    ``deltas`` holds ``value - base`` for every element in input order.
    A block is never changed once built: a writer builds a new one and
    swaps it in.  Two blocks are equal when base and deltas are.
    """

    # A plain slotted class, not a frozen dataclass: the Succinct leaf
    # builds one per block it writes, and the frozen dataclass's
    # ``object.__setattr__`` construction costs over twice as much.
    __slots__ = ("base", "deltas")

    def __init__(self, base: int, deltas: PackedIntArray) -> None:
        self.base = base
        self.deltas = deltas

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForBlock):
            return NotImplemented
        return self.base == other.base and self.deltas == other.deltas

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ForBlock(base={self.base}, deltas={self.deltas!r})"

    def __len__(self) -> int:
        return len(self.deltas)

    def __getitem__(self, index: int) -> int:
        return self.base + self.deltas[index]

    def to_list(self) -> List[int]:
        """Decode to a plain list."""
        return self.deltas.to_list(self.base)

    def size_bytes(self) -> int:
        """Modeled footprint: an 8-byte base plus the packed deltas."""
        return 8 + self.deltas.size_bytes()


def for_encode(values: Sequence[int]) -> ForBlock:
    """Encode ``values`` with frame-of-reference + bit packing.

    Works for any integer sequence (sorted or not); the frame is the
    minimum value so all deltas are non-negative.
    """
    if len(values) == 0:
        return ForBlock(base=0, deltas=PackedIntArray([], width=1))
    base = min(values)
    # base is the minimum, so every delta is >= 0 and fits the width: the
    # packed array needs none of the constructor's range checks.
    width = (max(values) - base).bit_length() or 1
    buffer = 0
    shift = 0
    for value in values:
        buffer |= (value - base) << shift
        shift += width
    return ForBlock(base, PackedIntArray._from_buffer(buffer, len(values), width))


def _encode_blocks(values: Sequence[int], block_entries: int) -> List[ForBlock]:
    """FOR-encode ``values`` in consecutive ``block_entries``-entry chunks."""
    return [
        for_encode(values[start : start + block_entries])
        for start in range(0, len(values), block_entries)
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


class ForRun:
    """A strictly sorted run of pairs, FOR-encoded in fixed-length blocks.

    Keys and values are cut into consecutive blocks of ``block_entries``
    entries; each block stores its own frame of reference and bit width,
    so one distant outlier cannot inflate the whole run's width — the
    behaviour of production FOR codecs and what yields the paper's ~73%
    savings.  Each block's minimum key is also kept uncompressed (the
    block directory), so a probe bisects it and then binary-searches one
    packed block: random access, no decompression.

    The modeled footprint is a :data:`HEADER_BYTES` header plus every
    block's 8-byte base and packed deltas; a writer that replaces blocks
    keeps ``_size_bytes`` up to date.
    """

    __slots__ = (
        "_block_entries",
        "_key_blocks",
        "_value_blocks",
        "_block_min_keys",
        "_num_entries",
        "_size_bytes",
    )

    def __init__(self, pairs: Sequence[Tuple[int, int]], block_entries: int) -> None:
        keys = [key for key, _ in pairs]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("run pairs must be strictly sorted by key")
        self._block_entries = block_entries
        self._key_blocks = _encode_blocks(keys, block_entries)
        self._value_blocks = _encode_blocks([value for _, value in pairs], block_entries)
        self._block_min_keys = keys[::block_entries]
        self._num_entries = len(keys)
        self._size_bytes = HEADER_BYTES + _blocks_bytes(
            self._key_blocks + self._value_blocks
        )

    def num_entries(self) -> int:
        """Number of stored entries."""
        return self._num_entries

    def num_blocks(self) -> int:
        """Number of blocks (entries in the block directory)."""
        return len(self._block_min_keys)

    def _key_at(self, index: int) -> int:
        block, offset = divmod(index, self._block_entries)
        return self._key_blocks[block][offset]

    def min_key(self) -> Optional[int]:
        """The smallest stored key, or None when empty."""
        return self._key_at(0) if self._num_entries else None

    def max_key(self) -> Optional[int]:
        """The largest stored key, or None when empty."""
        return self._key_at(self._num_entries - 1) if self._num_entries else None

    def _find(self, key: int) -> Tuple[int, bool]:
        """Where ``key`` is, or would be inserted, and whether it is there:
        a binary search over the blocked FOR layout (no decompression).

        First bisects the uncompressed per-block minimum keys to pick the
        one candidate block, then binary-searches that block's packed
        buffer in this frame: field ``i`` is ``buffer >> i * width`` masked
        to ``width`` bits, compared against ``key - base``.  Only O(log
        block size) fields are read instead of O(log n).
        """
        block_index = bisect.bisect_right(self._block_min_keys, key) - 1
        if block_index < 0:
            return 0, False
        block = self._key_blocks[block_index]
        deltas = block.deltas
        width, length, buffer = deltas._width, deltas._length, deltas._buffer
        mask = (1 << width) - 1
        target = key - block.base
        lo, hi = 0, length
        while lo < hi:
            mid = (lo + hi) >> 1
            if (buffer >> mid * width) & mask < target:
                lo = mid + 1
            else:
                hi = mid
        found = lo < length and (buffer >> lo * width) & mask == target
        return block_index * self._block_entries + lo, found

    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None.

        The key block is read before the value block at the same index,
        both from the lists a writer publishes into (see
        ``SuccinctStorage._publish``): an offset past the value block's
        end raises ``IndexError``, which an optimistic reader restarts on.
        """
        index, found = self._find(key)
        if not found:
            return None
        block_index, offset = divmod(index, self._block_entries)
        block = self._value_blocks[block_index]
        deltas = block.deltas
        if offset >= deltas._length:
            raise IndexError(
                f"offset {offset} out of range for a {deltas._length}-entry value block"
            )
        width = deltas._width
        return block.base + ((deltas._buffer >> offset * width) & ((1 << width) - 1))

    def to_pairs(self) -> List[Tuple[int, int]]:
        """Return all ``(key, value)`` pairs as a list."""
        return list(
            zip(_decode_blocks(self._key_blocks), _decode_blocks(self._value_blocks))
        )

    def pairs_from(self, start_key: int, limit: int) -> List[Tuple[int, int]]:
        """Up to ``limit`` pairs with key >= ``start_key``, decoding only
        the blocks they come from."""
        first, offset = divmod(self._find(start_key)[0], self._block_entries)
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
    block: ForBlock, offset: int, key: int, full: int
) -> Tuple[ForBlock, Optional[int]]:
    """``block`` with ``key`` spliced in at ``offset``, and the key that
    drops off its end when it held ``full`` entries (else None).  At
    offset 0 the key is the new base, so every field grows by the old
    base's distance."""
    deltas = block.deltas
    width, length, buffer = deltas._width, deltas._length, deltas._buffer
    base = block.base
    out = None
    if length == full:
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
    block: ForBlock, offset: int, value: int, full: int
) -> Tuple[ForBlock, Optional[int]]:
    """:func:`_insert_key` for a value block (unsorted; base is the
    minimum).  A value below the base becomes the base, the other fields
    rebased in the buffer by :func:`_rebased`."""
    deltas = block.deltas
    width, length, buffer = deltas._width, deltas._length, deltas._buffer
    base = block.base
    out = gone = None
    if length == full:
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


def _replace_value(block: ForBlock, offset: int, value: int) -> Tuple[ForBlock, int]:
    """``block`` with ``value`` in place of its value at ``offset``, and
    how many modeled bytes that adds.  An edit of one field of the buffer
    adds none.  A value below the base is the new base, so its field is
    cut, the others rebased and a 0 spliced back.  When the width or the
    base field moves, the block is re-encoded."""
    deltas = block.deltas
    width, length, buffer = deltas._width, deltas._length, deltas._buffer
    bits = offset * width
    delta = value - block.base
    if delta < 0:
        rest, _ = _cut(buffer, bits, width)
        rebased = _rebased(rest, length - 1, width, -delta)
        if rebased is not None:
            return _block(value, _splice(rebased, bits, width, 0), length, width), 0
    else:
        gone = (buffer >> bits) & ((1 << width) - 1)
        others = buffer ^ (gone << bits)
        if not delta >> width and _frame_holds(width, gone, others, length, delta):
            return _block(block.base, others | delta << bits, length, width), 0
    values = block.to_list()
    values[offset] = value
    new = for_encode(values)
    return new, new.size_bytes() - block.size_bytes()
