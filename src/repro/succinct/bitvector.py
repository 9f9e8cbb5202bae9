"""Appendable bitvector with rank/select directories.

LOUDS-encoded tries (:mod:`repro.fst`) navigate exclusively through
``rank``/``select`` queries over two bitmaps.  This module implements the
classic two-level directory: the bit payload lives in 64-bit words (an
``array('Q')``, so the payload is a real machine buffer rather than a
list of boxed ints), and a per-block popcount prefix array answers
``rank`` in O(1) word operations.

``select1`` uses a *sampled select directory*: at seal time the word
index containing every :data:`SELECT_SAMPLE_RATE`-th set bit is
recorded, so a query bisects only the handful of rank blocks between two
samples instead of the whole directory, then finishes inside one word
with popcount halving and a select-in-byte table.  ``next1`` (the first
set bit at or after a position) is what turns a LOUDS node start into
its end without a second select.

The structure is append-only while *unsealed*; :meth:`BitVector.seal`
freezes it and builds the directories.  Sealed vectors are what the
succinct tries store.  Bulk construction should prefer
:meth:`BitVector.extend` / :meth:`BitVector.extend_from_word` over
per-bit :meth:`BitVector.append` — they move whole words at a time.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1

#: One select sample per this many set bits.  256 keeps the directory
#: tiny (one u32 per 256 set bits) while bounding the binary-search
#: window to ~4 rank blocks.
SELECT_SAMPLE_RATE = 256

_NATIVE_LITTLE_ENDIAN = sys.byteorder == "little"
_UNSEALED = "BitVector must be sealed before querying; call seal()"

#: ``bytes.translate`` table of :meth:`BitVector.extend`: byte 0 is the
#: digit ``0``, every other byte the digit ``1``.
_BINARY_DIGIT = b"0" + b"1" * 255


#: ``_SELECT_IN_BYTE[byte << 3 | k]`` is the offset of the ``k``-th
#: (0-based) set bit of ``byte``; slots past the popcount are never read.
_SELECT_IN_BYTE = bytes(
    ([bit for bit in range(8) if byte >> bit & 1] + [0] * 8)[k]
    for byte in range(256)
    for k in range(8)
)


def _select_in_word(word: int, remaining: int) -> int:
    """Bit offset of the ``remaining``-th set bit of ``word`` (1-based).

    Three popcount halvings (32, 16, 8 bits) pick the byte lane; the
    table finishes inside it — no per-bit loop.
    """
    offset = 0
    ones = (word & 0xFFFFFFFF).bit_count()
    if remaining > ones:
        remaining -= ones
        word >>= 32
        offset = 32
    ones = (word & 0xFFFF).bit_count()
    if remaining > ones:
        remaining -= ones
        word >>= 16
        offset += 16
    ones = (word & 0xFF).bit_count()
    if remaining > ones:
        remaining -= ones
        word >>= 8
        offset += 8
    return offset + _SELECT_IN_BYTE[(word & 0xFF) << 3 | remaining - 1]


class BitVector:
    """A bitvector supporting O(1) rank and near-O(1) select once sealed.

    Bits are addressed from 0.  ``rank1(i)`` counts set bits in ``[0, i)``
    (exclusive of ``i``), matching the convention used in the LOUDS
    navigation formulas.  ``select1(j)`` returns the position of the
    ``j``-th set bit, counting from ``j = 1``.
    """

    def __init__(self, bits: Iterable[int] = ()) -> None:
        self._words: array = array("Q")
        self._size = 0
        self._sealed = False
        self._rank_blocks: List[int] = []
        self._select1_directory: List[int] = []
        self._ones = 0
        if bits:
            self.extend(bits)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, bit: int) -> None:
        """Append one bit (any truthy value counts as 1)."""
        if self._sealed:
            raise ValueError("cannot append to a sealed BitVector")
        word_index, bit_index = divmod(self._size, _WORD_BITS)
        if bit_index == 0:
            self._words.append(0)
        if bit:
            self._words[word_index] |= 1 << bit_index
        self._size += 1

    def extend(self, bits: Iterable[int]) -> None:
        """Append each bit of ``bits`` in order (any truthy value counts
        as 1).

        The bits become one 0/1 byte each, then one ``bytes.translate``
        spells them as binary digits (last bit first) and ``int(..., 2)``
        reads them as the word :meth:`extend_from_word` appends — no
        per-bit Python work beyond that normalisation.
        """
        if self._sealed:
            raise ValueError("cannot append to a sealed BitVector")
        flags = bits if isinstance(bits, (bytes, bytearray)) else bytes(map(bool, bits))
        if flags:
            self.extend_from_word(int(flags[::-1].translate(_BINARY_DIGIT), 2), len(flags))

    def extend_from_word(self, word: int, length: int) -> None:
        """Append the low ``length`` bits of ``word`` (bit 0 first).

        ``length`` may exceed 64; past the partial last word the payload
        is appended as one little-endian byte run.  This is the bulk
        construction path the LOUDS builders use for whole node bitmaps.
        """
        if self._sealed:
            raise ValueError("cannot append to a sealed BitVector")
        if length < 0:
            raise ValueError(f"bit count must be >= 0, got {length}")
        if length == 0:
            return
        word &= (1 << length) - 1
        words = self._words
        bit_index = self._size % _WORD_BITS
        remaining = length
        if bit_index:
            words[-1] |= (word << bit_index) & _WORD_MASK
            room = _WORD_BITS - bit_index
            word >>= room
            remaining -= room
        if remaining > 0:
            byte_count = (remaining + _WORD_BITS - 1) // _WORD_BITS * 8
            run = array("Q", word.to_bytes(byte_count, "little"))
            if not _NATIVE_LITTLE_ENDIAN:  # pragma: no cover - big-endian fallback
                run.byteswap()
            words.extend(run)
        self._size += length

    def seal(self) -> "BitVector":
        """Freeze the vector and build the rank and select directories.

        Returns ``self`` so construction can be chained:
        ``bv = BitVector(bits).seal()``.
        """
        if self._sealed:
            return self
        blocks = [0]
        select1: List[int] = []
        running = 0
        next_one = 1
        for word_index, word in enumerate(self._words):
            running += word.bit_count()
            blocks.append(running)
            while next_one <= running:
                select1.append(word_index)
                next_one += SELECT_SAMPLE_RATE
        self._rank_blocks = blocks
        self._select1_directory = select1
        self._ones = running
        self._sealed = True
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"bit index {index} out of range for size {self._size}")
        word_index, bit_index = divmod(index, _WORD_BITS)
        return (self._words[word_index] >> bit_index) & 1

    def __iter__(self) -> Iterator[int]:
        remaining = self._size
        for word in self._words:
            for _ in range(min(remaining, _WORD_BITS)):
                yield word & 1
                word >>= 1
            remaining -= _WORD_BITS

    @property
    def sealed(self) -> bool:
        """True once the rank directory has been built."""
        return self._sealed

    @property
    def ones(self) -> int:
        """Total number of set bits (requires a sealed vector)."""
        if not self._sealed:
            raise ValueError(_UNSEALED)
        return self._ones

    def word_slice(self, start: int, length: int) -> int:
        """Bits ``[start, start + length)`` as an int (bit 0 = ``start``).

        A fast bulk accessor for consumers that scan whole node bitmaps
        (LOUDS-dense navigation) instead of one bit at a time.  The word
        run is materialized in one ``int.from_bytes`` call instead of a
        per-word shift-or loop.
        """
        if length <= 0:
            return 0
        if start < 0 or start + length > self._size:
            raise IndexError(
                f"slice [{start}, {start + length}) out of range for size {self._size}"
            )
        first_word, bit_offset = divmod(start, _WORD_BITS)
        last_word = (start + length - 1) // _WORD_BITS
        if _NATIVE_LITTLE_ENDIAN:
            combined = int.from_bytes(
                self._words[first_word : last_word + 1].tobytes(), "little"
            )
        else:  # pragma: no cover - big-endian fallback
            combined = 0
            for offset, word in enumerate(self._words[first_word : last_word + 1]):
                combined |= word << (offset * _WORD_BITS)
        combined >>= bit_offset
        return combined & ((1 << length) - 1)

    def rank1(self, index: int) -> int:
        """Number of set bits in ``[0, index)``.

        ``index`` may equal ``len(self)``, in which case the total
        popcount is returned.
        """
        if not self._sealed:
            raise ValueError(_UNSEALED)
        if not 0 <= index <= self._size:
            raise IndexError(f"rank index {index} out of range for size {self._size}")
        word_index, bit_index = divmod(index, _WORD_BITS)
        count = self._rank_blocks[word_index]
        if bit_index:
            mask = (1 << bit_index) - 1
            count += (self._words[word_index] & mask).bit_count()
        return count

    def rank0(self, index: int) -> int:
        """Number of clear bits in ``[0, index)``."""
        return index - self.rank1(index)

    def select1(self, count: int) -> int:
        """Position of the ``count``-th set bit, counting from 1.

        Raises :class:`ValueError` when fewer than ``count`` bits are set.
        """
        if not self._sealed:
            raise ValueError(_UNSEALED)
        if count < 1 or count > self._ones:
            raise ValueError(f"select1({count}) out of range; vector has {self._ones} ones")
        # The sampled directory brackets the word; bisect only the rank
        # blocks between two adjacent samples for the first word whose
        # cumulative popcount reaches ``count``.
        directory = self._select1_directory
        sample_index = (count - 1) // SELECT_SAMPLE_RATE
        lo = directory[sample_index]
        if sample_index + 1 < len(directory):
            hi = directory[sample_index + 1]
        else:
            hi = len(self._words) - 1
        blocks = self._rank_blocks
        lo = bisect_left(blocks, count, lo + 1, hi + 1) - 1
        return lo * _WORD_BITS + _select_in_word(self._words[lo], count - blocks[lo])

    def next1(self, index: int) -> int:
        """Position of the first set bit at or after ``index``.

        Returns ``len(self)`` when no set bit follows; ``index`` may
        equal ``len(self)``.  One word read when the bit shares
        ``index``'s word, otherwise a bisect of the rank blocks for the
        next word that adds to the popcount — never a bit-by-bit walk.
        """
        if not self._sealed:
            raise ValueError(_UNSEALED)
        if not 0 <= index <= self._size:
            raise IndexError(f"bit index {index} out of range for size {self._size}")
        word_index = index >> 6
        blocks = self._rank_blocks
        if blocks[word_index] == self._ones:
            return self._size
        word = self._words[word_index] >> (index & 63)
        if not word:
            if blocks[word_index + 1] == self._ones:
                return self._size
            word_index = bisect_right(blocks, blocks[word_index + 1], word_index + 2) - 1
            word = self._words[word_index]
            index = word_index * _WORD_BITS
        return index + (word & -word).bit_length() - 1

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Modeled storage footprint: payload words + rank directory.

        The C++ layout this models stores 64-bit payload words plus one
        32-bit cumulative popcount per word-block.  The sampled select
        directory is derived metadata (rebuildable from the payload) and
        is deliberately excluded so modeled sizes stay comparable with
        the paper's storage figures.
        """
        payload = len(self._words) * 8
        directory = len(self._rank_blocks) * 4 if self._sealed else 0
        return payload + directory

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "sealed" if self._sealed else "open"
        return f"BitVector(size={self._size}, ones={self._ones if self._sealed else '?'}, {state})"
