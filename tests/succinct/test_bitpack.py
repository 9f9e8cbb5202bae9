"""Tests for the bit packing inside a FOR block: the width ``for_encode``
picks, and the fixed-width fields a :class:`ForBlock` holds in one int."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.for_codec import ForBlock, for_encode


class TestBitsRequired:
    """The width is the fewest bits that hold the largest delta."""

    def test_zero_needs_one_bit(self):
        # Every delta is 0: the block still has a well-defined, nonzero width.
        assert for_encode([5, 5, 5]).width == 1

    def test_powers_of_two(self):
        assert for_encode([0, 1]).width == 1
        assert for_encode([0, 2]).width == 2
        assert for_encode([0, 255]).width == 8
        assert for_encode([0, 256]).width == 9


class TestPackedIntArray:
    """A block's ``length`` fields of ``width`` bits, field ``i`` at bit
    ``i * width`` of ``buffer``."""

    def test_roundtrip(self):
        values = [5, 0, 31, 17]
        block = for_encode(values)
        assert block.to_list() == values
        assert len(block) == 4

    def test_auto_width_is_minimal(self):
        assert for_encode([0, 7]).width == 3
        assert for_encode([0, 8]).width == 4
        assert for_encode([0]).width == 1

    def test_empty(self):
        block = for_encode([])
        assert (block.base, block.buffer, block.length, block.width) == (0, 0, 0, 1)
        assert block.to_list() == []
        assert block.size_bytes() == 8  # the base alone

    def test_to_list_adds_the_base(self):
        block = ForBlock(100, 0 | 5 << 3 | 2 << 6, 3, 3)
        assert block.to_list() == [100, 105, 102]
        assert block == for_encode([100, 105, 102])

    def test_random_access(self):
        block = for_encode(list(range(100)))
        assert block[0] == 0
        assert block[50] == 50
        assert block[-1] == 99

    def test_index_out_of_range(self):
        block = for_encode([1, 2])
        with pytest.raises(IndexError):
            block[2]
        with pytest.raises(IndexError):
            block[-3]

    def test_equality(self):
        assert for_encode([1, 2, 3]) == for_encode([1, 2, 3])
        assert for_encode([1, 2, 3]) != for_encode([1, 2, 4])
        # The same base and buffer read at another width or length.
        assert ForBlock(0, 1, 1, 2) != ForBlock(0, 1, 1, 3)
        assert ForBlock(0, 1, 1, 2) != ForBlock(0, 1, 2, 2)

    def test_size_bytes_rounds_up(self):
        # 10 fields x 3 bits = 30 bits -> 4 bytes, plus the 8-byte base.
        assert for_encode([0] + [7] * 9).size_bytes() == 8 + 4

    def test_size_smaller_than_plain_ints(self):
        values = list(range(1000))
        assert for_encode(values).size_bytes() < 8 * len(values)


@settings(max_examples=80)
@given(st.lists(st.integers(min_value=0, max_value=2**48), max_size=200))
def test_roundtrip_property(values):
    block = for_encode(values)
    assert block.to_list() == values
    assert list(block) == values
    for index, value in enumerate(values):
        assert block[index] == value
