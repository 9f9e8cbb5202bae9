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
(``_remove_*``, ``_replace_value``, and the field moves ``_splice``,
``_rebased`` and ``_rewidth`` that the leaf's insert loop calls) edit
one block of a run, and the leaf chooses which blocks they edit.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

#: The modeled node header every sorted-pair layout pays.
HEADER_BYTES = 16


class ForBlock:
    """A FOR-encoded integer sequence.

    ``base`` is the frame of reference (the minimum of the input); field
    ``i`` of ``buffer`` holds ``value - base`` for the ``i``-th element in
    input order.  The ``length`` fields are ``width`` bits each, field
    ``i`` at bits ``[i * width, (i + 1) * width)`` of the ``int``, which
    stands for a contiguous byte buffer in the modeled C++ layout: a read
    shifts and masks as the C++ code would.  A block is never changed once
    built: a writer builds a new one and swaps it in.  Two blocks are
    equal when all four fields are.
    """

    # A plain slotted class, not a frozen dataclass: the Succinct leaf
    # builds one per block it writes, and the frozen dataclass's
    # ``object.__setattr__`` construction costs over twice as much.
    __slots__ = ("base", "buffer", "length", "width")

    def __init__(self, base: int, buffer: int, length: int, width: int) -> None:
        self.base = base
        self.buffer = buffer
        self.length = length
        self.width = width

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForBlock):
            return NotImplemented
        return (
            self.base == other.base
            and self.buffer == other.buffer
            and self.length == other.length
            and self.width == other.width
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ForBlock(base={self.base}, length={self.length}, width={self.width})"

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> int:
        length = self.length
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"index {index} out of range for length {length}")
        width = self.width
        return self.base + ((self.buffer >> index * width) & ((1 << width) - 1))

    def to_list(self) -> List[int]:
        """Decode to a plain list."""
        base, buffer, width = self.base, self.buffer, self.width
        mask = (1 << width) - 1
        return [
            base + ((buffer >> shift) & mask)
            for shift in range(0, self.length * width, width)
        ]

    def size_bytes(self) -> int:
        """Modeled footprint: an 8-byte base plus the packed fields,
        rounded up to whole bytes."""
        return 8 + ((self.length * self.width + 7) >> 3)


def for_encode(values: Sequence[int]) -> ForBlock:
    """Encode ``values`` with frame-of-reference + bit packing.

    Works for any integer sequence (sorted or not); the frame is the
    minimum value so all deltas are non-negative, and the width is the
    fewest bits that hold the largest delta (at least 1).
    """
    if len(values) == 0:
        return ForBlock(0, 0, 0, 1)
    base = min(values)
    width = (max(values) - base).bit_length() or 1
    buffer = 0
    shift = 0
    for value in values:
        buffer |= (value - base) << shift
        shift += width
    return ForBlock(base, buffer, len(values), width)


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
    block's 8-byte base and packed fields; a writer that replaces blocks
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
        self._size_bytes = HEADER_BYTES + sum(
            block.size_bytes() for block in self._key_blocks + self._value_blocks
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
        width, length, buffer = block.width, block.length, block.buffer
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
        if offset >= block.length:
            raise IndexError(
                f"offset {offset} out of range for a {block.length}-entry value block"
            )
        width = block.width
        return block.base + ((block.buffer >> offset * width) & ((1 << width) - 1))

    def to_pairs(self) -> List[Tuple[int, int]]:
        """Return all ``(key, value)`` pairs as a list."""
        return list(
            zip(_decode_blocks(self._key_blocks), _decode_blocks(self._value_blocks))
        )

    def pairs_from(self, start_key: int, limit: int) -> List[Tuple[int, int]]:
        """Up to ``limit`` pairs with key >= ``start_key``.

        Reads only the fields it returns: from each block, the key and the
        value buffer are shifted to the first field taken and walked side
        by side, one field of each per pair; no block is decoded whole.
        """
        first, offset = divmod(self._find(start_key)[0], self._block_entries)
        key_blocks = self._key_blocks
        value_blocks = self._value_blocks
        pairs: List[Tuple[int, int]] = []
        append = pairs.append
        for block_index in range(first, len(key_blocks)):
            keys = key_blocks[block_index]
            values = value_blocks[block_index]
            key_base, key_width = keys.base, keys.width
            value_base, value_width = values.base, values.width
            key_mask = (1 << key_width) - 1
            value_mask = (1 << value_width) - 1
            key_fields = keys.buffer >> offset * key_width
            value_fields = values.buffer >> offset * value_width
            for _ in range(min(keys.length - offset, limit - len(pairs))):
                append(
                    (key_base + (key_fields & key_mask), value_base + (value_fields & value_mask))
                )
                key_fields >>= key_width
                value_fields >>= value_width
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
# is the mirror image.  Each edit is a few big-int operations: a new
# minimum moves the frame of reference, and every other field is rebased
# inside the buffer.  An insert also re-packs a block whose width moves
# (:func:`_rewidth`) when it knows the new width.  Only a block whose
# base field leaves, or whose new width is not known without reading
# every field, is decoded and re-encoded (the fallback), so every block
# always equals ``for_encode`` of its entries.

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


def _rebased(buffer: int, fields: int, width: int, shift: int) -> Optional[int]:
    """``buffer`` with ``shift`` (> 0) added to each of its ``fields``
    fields — a value block whose base moves ``shift`` down — or None when
    a fresh encode would then pick another width: a field overflows
    ``width`` bits or, above width 1, no field keeps the top bit.

    One addition adds ``shift`` to every field.  A field that overflows
    carries into the bit above its own, and ``a ^ b ^ (a + b)`` holds
    every carry the addition made, so one AND with the lowest bit of each
    next field finds the first overflow (the fields below it were added
    exactly).  When none overflows, one AND reads every field's top bit.
    """
    if shift >> width:  # every field would overflow
        return None
    ones = _ones(width, fields)
    added = shift * ones
    rebased = buffer + added
    if (buffer ^ added ^ rebased) & ones << width or (
        width > 1 and not rebased & ones << width - 1
    ):
        return None
    return rebased


#: Memo of :func:`_rewidth`'s moves, a pure function of its widths and
#: field count like :func:`_ones`.
_MOVES: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}


def _rewidth(buffer: int, fields: int, width: int, new_width: int) -> int:
    """``buffer``'s fields moved from ``width`` to ``new_width`` bits
    apart.  Each must fit in the narrower width; ``fields`` may exceed
    the fields present (the missing ones are 0 and move as 0).

    Field ``i`` moves ``i * d`` bits, ``d`` the two widths' difference:
    one masked move per bit ``k`` of ``i`` takes every field whose index
    has that bit ``d << k`` bits, the high bits first when the fields
    spread out and the low bits first when they close up, so no field
    lands on one that has not moved yet.  A 32-field block takes five.
    """
    moves = _MOVES.get((fields, width, new_width))
    if moves is None:
        moves = _MOVES[fields, width, new_width] = _moves(fields, width, new_width)
    if new_width > width:
        for mask, shift in moves:
            moved = buffer & mask
            buffer = buffer ^ moved | moved << shift
    else:
        for mask, shift in moves:
            moved = buffer & mask
            buffer = buffer ^ moved | moved >> shift
    return buffer


def _moves(fields: int, width: int, new_width: int) -> List[Tuple[int, int]]:
    """:func:`_rewidth`'s masked moves, in order: the mask of the fields
    that move, where they are by then, and how far they move."""
    field = (1 << min(width, new_width)) - 1
    step = abs(new_width - width)
    bits = range((fields - 1).bit_length())
    spread = new_width > width
    moves = []
    for k in reversed(bits) if spread else bits:
        mask = 0
        for index in range(fields):
            if index >> k & 1:
                if spread:  # moved out by its higher bits already
                    position = index * width + step * (index >> k + 1 << k + 1)
                else:  # moved in by its lower bits already
                    position = index * width - step * (index & (1 << k) - 1)
                mask |= field << position
        moves.append((mask, step << k))
    return moves


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


def _single(value: int) -> ForBlock:
    """The block ``for_encode([value])`` builds."""
    return ForBlock(value, 0, 1, 1)


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


def _spliced_encode(block: ForBlock, length: int, offset: int, value: int) -> ForBlock:
    """``for_encode`` of ``block``'s first ``length`` entries with
    ``value`` spliced in at ``offset``: an insert's fallback when the
    block's width or its base field would move."""
    values = block.to_list()[:length]
    values.insert(offset, value)
    return for_encode(values)


def _remove_key(block: ForBlock, offset: int, key: Optional[int]) -> Optional[ForBlock]:
    """``block`` without its key at ``offset`` and with ``key`` (above its
    last key; None: nothing) at the end; None when nothing is left.  At
    offset 0 the second key is the new base: every field shrinks by it."""
    width, length, buffer = block.width, block.length, block.buffer
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
        return ForBlock(base, rest, length, width)
    keys = block.to_list()
    del keys[offset]
    if key is not None:
        keys.append(key)
    return for_encode(keys)


def _remove_value(block: ForBlock, offset: int, value: Optional[int]) -> ForBlock:
    """:func:`_remove_key` for a value block that keeps an entry; a value
    below the base becomes the base, the others rebased in the buffer by
    :func:`_rebased`."""
    width, length, buffer = block.width, block.length, block.buffer
    length -= 1
    base = block.base
    rest, gone = _cut(buffer, offset * width, width)
    if value is None:
        if _frame_holds(width, gone, rest, length, 1):
            return ForBlock(base, rest, length, width)
    else:
        delta = value - base
        if delta < 0:
            rebased = _rebased(rest, length, width, -delta)
            if rebased is not None:  # the new last field is the 0
                return ForBlock(value, rebased, length + 1, width)
        elif not delta >> width and _frame_holds(width, gone, rest, length, delta):
            return ForBlock(base, rest | delta << length * width, length + 1, width)
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
    width, length, buffer = block.width, block.length, block.buffer
    bits = offset * width
    delta = value - block.base
    if delta < 0:
        rest, _ = _cut(buffer, bits, width)
        rebased = _rebased(rest, length - 1, width, -delta)
        if rebased is not None:
            return ForBlock(value, _splice(rebased, bits, width, 0), length, width), 0
    else:
        gone = (buffer >> bits) & ((1 << width) - 1)
        others = buffer ^ (gone << bits)
        if not delta >> width and _frame_holds(width, gone, others, length, delta):
            return ForBlock(block.base, others | delta << bits, length, width), 0
    values = block.to_list()
    values[offset] = value
    new = for_encode(values)
    return new, new.size_bytes() - block.size_bytes()
