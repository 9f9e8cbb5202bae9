"""The select kernel must agree with a naive bit list.

``select1`` brackets its search between two sampled word positions,
bisects the rank blocks between them and finishes inside one word with
popcount halving plus a select-in-byte table; ``next1`` turns a position
into the next set bit with one word read or one bisect.  These tests pin
both to a straightforward reference, including the all-zeros / all-ones
edges, the last set bit, an all-zero tail and ``index == len``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.bitvector import SELECT_SAMPLE_RATE, BitVector, _select_in_word


def make(bits):
    return BitVector(bits).seal()


def reference_select(bits, wanted, index):
    """Position of the ``index``-th (1-based) occurrence of ``wanted``."""
    seen = 0
    for position, bit in enumerate(bits):
        if bit == wanted:
            seen += 1
            if seen == index:
                return position
    raise AssertionError("reference select out of range")


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=700))
    def test_select1_matches_reference(self, bits):
        vector = make(bits)
        for index in range(1, vector.ones + 1):
            assert vector.select1(index) == reference_select(bits, 1, index)

    def test_large_random_vector_crosses_many_samples(self):
        rng = random.Random(0xC0FFEE)
        bits = [rng.randint(0, 1) for _ in range(8 * SELECT_SAMPLE_RATE)]
        vector = make(bits)
        positions1 = [i for i, bit in enumerate(bits) if bit]
        for index, expected in enumerate(positions1, start=1):
            assert vector.select1(index) == expected


class TestEdges:
    def test_all_ones(self):
        size = 3 * SELECT_SAMPLE_RATE + 17
        vector = make([1] * size)
        for index in (1, 2, SELECT_SAMPLE_RATE, size):
            assert vector.select1(index) == index - 1
        assert [vector.next1(index) for index in (0, 63, 64, size - 1, size)] == [
            0, 63, 64, size - 1, size,
        ]

    def test_all_zeros(self):
        size = 3 * SELECT_SAMPLE_RATE + 17
        vector = make([0] * size)
        for index in (0, 1, 64, size - 1, size):
            assert vector.next1(index) == size
        with pytest.raises(ValueError):
            vector.select1(1)

    def test_empty_vector(self):
        vector = make([])
        with pytest.raises(ValueError):
            vector.select1(1)
        assert vector.next1(0) == 0

    def test_out_of_range(self):
        vector = make([1, 0, 1])
        with pytest.raises(ValueError):
            vector.select1(3)
        for index in (-1, 4):
            with pytest.raises(IndexError):
                vector.next1(index)
        with pytest.raises(ValueError):
            BitVector([1]).next1(0)  # unsealed

    def test_sparse_ones_far_apart(self):
        bits = [0] * 5000
        for position in (0, 63, 64, 1000, 4095, 4999):
            bits[position] = 1
        vector = make(bits)
        expected = [i for i, bit in enumerate(bits) if bit]
        for index, position in enumerate(expected, start=1):
            assert vector.select1(index) == position

    def test_rank_select_inverse(self):
        rng = random.Random(7)
        bits = [rng.randint(0, 1) for _ in range(2000)]
        vector = make(bits)
        for index in range(1, vector.ones + 1):
            assert vector.rank1(vector.select1(index) + 1) == index


class TestKernelAgainstNaiveBits:
    """``select1`` and ``next1`` at the densities LOUDS vectors have."""

    @pytest.mark.parametrize("density", [0.02, 0.5, 0.98])
    @pytest.mark.parametrize("size", [64, 640, 1, 63, 65, 700, 4 * SELECT_SAMPLE_RATE + 37])
    def test_select1_and_next1(self, density, size):
        rng = random.Random(size * 100 + int(density * 100))
        bits = [int(rng.random() < density) for _ in range(size)]
        self.check(bits)
        # An all-zero tail after the last set bit, and a set last bit.
        self.check(bits[: size // 2] + [0] * (size - size // 2))
        self.check(bits[:-1] + [1])

    @staticmethod
    def check(bits):
        vector = make(bits)
        ones = [index for index, bit in enumerate(bits) if bit]
        assert [vector.select1(count) for count in range(1, len(ones) + 1)] == ones
        following = len(bits)
        expected = [following]  # next1(len) == len
        for index in range(len(bits) - 1, -1, -1):
            if bits[index]:
                following = index
            expected.append(following)
        expected.reverse()
        assert [vector.next1(index) for index in range(len(bits) + 1)] == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=700))
    def test_next1_is_select_of_rank(self, bits):
        vector = make(bits)
        for index in range(len(bits) + 1):
            rank = vector.rank1(index)
            expected = vector.select1(rank + 1) if rank < vector.ones else len(bits)
            assert vector.next1(index) == expected


def test_select_in_word_every_byte_pattern_in_every_lane():
    for lane in range(8):
        # Ones below the lane shift the wanted rank; ones above must not matter.
        for below, above in ((0, 0), ((1 << 8 * lane) - 1, 0), (0, ~0)):
            noise = (below | above << 8 * (lane + 1)) & (1 << 64) - 1
            skipped = (noise & (1 << 8 * lane) - 1).bit_count()
            for byte in range(1, 256):
                word = noise | byte << 8 * lane
                offsets = [8 * lane + bit for bit in range(8) if byte >> bit & 1]
                for rank, offset in enumerate(offsets, start=1):
                    assert _select_in_word(word, skipped + rank) == offset
