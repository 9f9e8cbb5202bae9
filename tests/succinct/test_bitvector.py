"""Tests for the rank/select bitvector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.bitvector import BitVector


def make(bits):
    return BitVector(bits).seal()


class TestConstruction:
    def test_empty(self):
        bv = make([])
        assert len(bv) == 0
        assert bv.ones == 0

    def test_append_and_index(self):
        bv = BitVector()
        bv.append(1)
        bv.append(0)
        bv.append(1)
        bv.seal()
        assert [bv[0], bv[1], bv[2]] == [1, 0, 1]

    def test_negative_index(self):
        bv = make([1, 0, 0, 1])
        assert bv[-1] == 1
        assert bv[-4] == 1

    def test_out_of_range_index(self):
        bv = make([1, 0])
        with pytest.raises(IndexError):
            bv[2]

    def test_append_after_seal_raises(self):
        bv = make([1])
        with pytest.raises(ValueError):
            bv.append(1)

    def test_seal_idempotent(self):
        bv = make([1, 0])
        assert bv.seal() is bv

    def test_extend(self):
        bv = BitVector()
        bv.extend([1, 1, 0])
        bv.seal()
        assert list(bv) == [1, 1, 0]

    def test_query_before_seal_raises(self):
        bv = BitVector([1, 0])
        with pytest.raises(ValueError):
            bv.rank1(1)

    def test_truthy_bits(self):
        bv = make(["x", "", None, 7])
        assert list(bv) == [1, 0, 0, 1]


def appended(prefix, bits):
    """The vector ``extend`` must equal: ``prefix`` then ``bits``, one
    ``append`` each."""
    vector = BitVector()
    for bit in list(prefix) + list(bits):
        vector.append(bit)
    return vector


def pattern(length):
    return [(index * 7 + index // 3) % 5 % 2 for index in range(length)]


class TestExtendEqualsAppend:
    """``extend`` packs through one translate and one ``int(..., 2)``; it
    must give exactly the words, size and ranks of per-bit ``append``."""

    @staticmethod
    def check(prefix, bits, shapes=(list, bytes, iter)):
        expected = appended(prefix, bits).seal()
        for shape in shapes:
            vector = BitVector()
            for bit in prefix:
                vector.append(bit)
            vector.extend(shape(bits))
            vector.seal()
            assert len(vector) == len(expected)
            assert vector._words == expected._words
            assert vector._rank_blocks == expected._rank_blocks
            assert list(vector) == list(expected)

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 1000])
    def test_lengths(self, length):
        self.check([], pattern(length))

    @pytest.mark.parametrize("length", [0, 1, 59, 60, 64, 1000])
    def test_after_a_partial_word(self, length):
        self.check([1, 0, 1, 1, 0], pattern(length))

    def test_truthy_elements(self):
        bits = [2, b"\x02", "x", 0, "", b"", None, 1] * 20
        expected = [bool(bit) for bit in bits]
        self.check([1, 1, 0], bits, shapes=(list, iter))
        assert list(make(bits)) == expected
        self.check([], bytes([0, 2, 255, 0, 1] * 30), shapes=(bytes, bytearray, list))

    def test_extend_after_seal_raises(self):
        vector = make([1, 0])
        for bits in ([], b"", [1], b"\x01", iter([1])):
            with pytest.raises(ValueError, match="sealed"):
                vector.extend(bits)
        assert len(vector) == 2


class TestRank:
    def test_rank1_exclusive(self):
        bv = make([1, 0, 1, 1])
        assert bv.rank1(0) == 0
        assert bv.rank1(1) == 1
        assert bv.rank1(2) == 1
        assert bv.rank1(4) == 3

    def test_rank0(self):
        bv = make([1, 0, 1, 0, 0])
        assert bv.rank0(5) == 3
        assert bv.rank0(1) == 0

    def test_rank_end_equals_total(self):
        bits = [1, 0] * 100
        bv = make(bits)
        assert bv.rank1(len(bits)) == 100

    def test_rank_out_of_range(self):
        bv = make([1])
        with pytest.raises(IndexError):
            bv.rank1(2)

    def test_rank_across_word_boundaries(self):
        bits = [1] * 65 + [0] * 65 + [1] * 10
        bv = make(bits)
        assert bv.rank1(64) == 64
        assert bv.rank1(65) == 65
        assert bv.rank1(130) == 65
        assert bv.rank1(140) == 75


class TestSelect:
    def test_select1_basic(self):
        bv = make([0, 1, 0, 1, 1])
        assert bv.select1(1) == 1
        assert bv.select1(2) == 3
        assert bv.select1(3) == 4

    def test_select1_out_of_range(self):
        bv = make([1, 0])
        with pytest.raises(ValueError):
            bv.select1(2)
        with pytest.raises(ValueError):
            bv.select1(0)

    def test_select_across_words(self):
        bits = [0] * 100 + [1] + [0] * 100 + [1]
        bv = make(bits)
        assert bv.select1(1) == 100
        assert bv.select1(2) == 201


class TestSizeAccounting:
    def test_size_includes_directory_after_seal(self):
        open_bv = BitVector([1] * 128)
        open_size = open_bv.size_bytes()
        sealed_size = open_bv.seal().size_bytes()
        assert sealed_size > open_size

    def test_size_grows_with_bits(self):
        small = make([1] * 64)
        large = make([1] * 640)
        assert large.size_bytes() > small.size_bytes()


@settings(max_examples=60)
@given(st.lists(st.booleans(), max_size=400))
def test_rank_select_agree_with_naive(bits):
    bv = make(bits)
    ones_positions = [index for index, bit in enumerate(bits) if bit]
    for index in range(len(bits) + 1):
        assert bv.rank1(index) == sum(bits[:index])
        assert bv.rank0(index) == index - sum(bits[:index])
    for count, position in enumerate(ones_positions, start=1):
        assert bv.select1(count) == position


@settings(max_examples=40)
@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_select_is_inverse_of_rank(bits):
    bv = make(bits)
    for count in range(1, bv.ones + 1):
        position = bv.select1(count)
        assert bv.rank1(position + 1) == count
        assert bv[position] == 1
