"""Fixed-width bit-packed integer arrays.

The Succinct B+-tree leaf encoding (Figure 8 of the paper) stores key and
value deltas with exactly as many bits as the largest delta requires.  This
module provides that storage layer: a :class:`PackedIntArray` packs ``n``
non-negative integers of ``width`` bits each into a contiguous buffer and
supports random access, which is what keeps the succinct leaves
binary-searchable.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence


def bits_required(value: int) -> int:
    """Minimum bits needed to represent ``value`` (at least 1).

    ``bits_required(0) == 1`` so that an all-zero delta array still has a
    well-defined, nonzero width.
    """
    if value < 0:
        raise ValueError(f"bit packing requires non-negative values, got {value}")
    return max(1, value.bit_length())


class PackedIntArray:
    """An immutable array of ``width``-bit unsigned integers.

    The payload is held in a Python ``int`` used as a bit buffer, which
    mirrors a contiguous byte buffer in the modeled C++ layout; random
    access shifts and masks exactly like the C++ code would.  Element
    ``i`` occupies bits ``[i * width, (i + 1) * width)`` of ``_buffer``;
    the Succinct leaf's write kernel edits that buffer arithmetically.
    """

    __slots__ = ("_width", "_length", "_buffer")

    def __init__(self, values: Sequence[int], width: int | None = None) -> None:
        if width is None:
            width = max((bits_required(v) for v in values), default=1)
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if values and (min(values) < 0 or max(values) >> width):
            limit = 1 << width
            offender = next(v for v in values if v < 0 or v >= limit)
            raise ValueError(f"value {offender} does not fit in {width} bits")
        buffer = 0
        shift = 0
        for value in values:
            buffer |= value << shift
            shift += width
        self._width = width
        self._length = len(values)
        self._buffer = buffer

    @classmethod
    def _from_buffer(cls, buffer: int, length: int, width: int) -> PackedIntArray:
        """Wrap an already packed ``buffer`` without checking it: the
        caller guarantees ``length`` fields of ``width`` bits and no bit
        above them."""
        array = cls.__new__(cls)
        array._width = width
        array._length = length
        array._buffer = buffer
        return array

    @property
    def width(self) -> int:
        """Bit width of each stored value."""
        return self._width

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range for length {self._length}")
        mask = (1 << self._width) - 1
        return (self._buffer >> (index * self._width)) & mask

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedIntArray):
            return NotImplemented
        return (
            self._width == other._width
            and self._length == other._length
            and self._buffer == other._buffer
        )

    def to_list(self, base: int = 0) -> List[int]:
        """Decode to a plain list, adding ``base`` to every element."""
        width = self._width
        mask = (1 << width) - 1
        buffer = self._buffer
        return [
            base + ((buffer >> shift) & mask)
            for shift in range(0, self._length * width, width)
        ]

    def size_bytes(self) -> int:
        """Modeled storage footprint: payload bits rounded up to bytes."""
        return (self._length * self._width + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PackedIntArray(len={self._length}, width={self._width})"

