"""Frame-of-reference (FOR) encoding for integer sequences.

The paper's Succinct leaf layout (Figure 8) stores the smallest key and
value separately and encodes the remaining entries as bit-packed deltas
against that frame of reference.  :func:`for_encode` produces that
representation; the result supports random access, so succinct leaves stay
binary-searchable without decompressing.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.succinct.bitpack import PackedIntArray


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


def for_decode(block: ForBlock) -> List[int]:
    """Decode a :class:`ForBlock` back to a plain list."""
    return block.to_list()
