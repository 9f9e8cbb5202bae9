"""Tests for fixed-width bit-packed arrays."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.bitpack import PackedIntArray, bits_required


class TestBitsRequired:
    def test_zero_needs_one_bit(self):
        assert bits_required(0) == 1

    def test_powers_of_two(self):
        assert bits_required(1) == 1
        assert bits_required(2) == 2
        assert bits_required(255) == 8
        assert bits_required(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits_required(-1)


class TestPackedIntArray:
    def test_roundtrip(self):
        values = [5, 0, 31, 17]
        packed = PackedIntArray(values)
        assert packed.to_list() == values
        assert len(packed) == 4

    def test_auto_width_is_minimal(self):
        assert PackedIntArray([7]).width == 3
        assert PackedIntArray([8]).width == 4
        assert PackedIntArray([0]).width == 1

    def test_empty(self):
        packed = PackedIntArray([])
        assert len(packed) == 0
        assert packed.to_list() == []
        assert packed.size_bytes() == 0

    def test_explicit_width_enforced(self):
        with pytest.raises(ValueError):
            PackedIntArray([16], width=4)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            PackedIntArray([-1])

    def test_error_names_the_first_offending_value(self):
        with pytest.raises(ValueError, match=r"^value 16 does not fit in 4 bits$"):
            PackedIntArray([3, 16, -2, 99], width=4)
        with pytest.raises(ValueError, match=r"^value -2 does not fit in 4 bits$"):
            PackedIntArray([3, -2, 16], width=4)
        with pytest.raises(ValueError, match=r"^width must be >= 1, got 0$"):
            PackedIntArray([], width=0)

    def test_to_list_adds_the_base(self):
        assert PackedIntArray([0, 5, 2], width=3).to_list(100) == [100, 105, 102]

    def test_random_access(self):
        values = list(range(100))
        packed = PackedIntArray(values)
        assert packed[0] == 0
        assert packed[50] == 50
        assert packed[-1] == 99

    def test_index_out_of_range(self):
        packed = PackedIntArray([1, 2])
        with pytest.raises(IndexError):
            packed[2]

    def test_equality(self):
        assert PackedIntArray([1, 2, 3]) == PackedIntArray([1, 2, 3])
        assert PackedIntArray([1, 2, 3]) != PackedIntArray([1, 2, 4])
        assert PackedIntArray([1], width=2) != PackedIntArray([1], width=3)

    def test_size_bytes_rounds_up(self):
        # 10 values x 3 bits = 30 bits -> 4 bytes
        assert PackedIntArray([7] * 10).size_bytes() == 4

    def test_size_smaller_than_plain_ints(self):
        values = list(range(1000))
        packed = PackedIntArray(values)
        assert packed.size_bytes() < 8 * len(values)


@settings(max_examples=80)
@given(st.lists(st.integers(min_value=0, max_value=2**48), max_size=200))
def test_roundtrip_property(values):
    packed = PackedIntArray(values)
    assert packed.to_list() == values
    assert list(packed) == values
    for index, value in enumerate(values):
        assert packed[index] == value
