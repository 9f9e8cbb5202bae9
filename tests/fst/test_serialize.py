"""Tests for FST binary serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.tree import terminated
from repro.faults import FaultInjector, InjectedFault
from repro.fst import CorruptSerializationError, FST, fst_from_bytes, fst_to_bytes


def int_pairs(n, seed=0):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(2**44), n))
    return [(key.to_bytes(8, "big"), index) for index, key in enumerate(keys)]


class TestRoundtrip:
    @pytest.mark.parametrize("dense_levels", [0, 2, 64], ids=lambda d: f"dense={d}")
    def test_lookups_survive(self, dense_levels):
        pairs = int_pairs(1000)
        original = FST(pairs, dense_levels=dense_levels)
        loaded = FST.from_bytes(original.to_bytes())
        for key, value in pairs[::17]:
            assert loaded.lookup(key) == value
        assert loaded.lookup(b"\x00" * 8) is None

    def test_structure_preserved(self):
        pairs = int_pairs(500)
        original = FST(pairs, dense_levels=2)
        blob = original.to_bytes()
        loaded = FST.from_bytes(blob)
        # The blob stays in the modeled size's regime: the rank
        # directories are rebuilt on load, not shipped.
        assert len(blob) < 1.2 * original.size_bytes()
        assert loaded.num_keys == original.num_keys
        assert loaded.num_nodes == original.num_nodes
        assert loaded.num_dense_nodes == original.num_dense_nodes
        assert loaded.height == original.height
        assert loaded.dense_levels == original.dense_levels
        assert loaded.size_bytes() == original.size_bytes()

    def test_iteration_and_scans_survive(self):
        pairs = int_pairs(400)
        loaded = FST.from_bytes(FST(pairs).to_bytes())
        assert list(loaded.items()) == pairs
        assert loaded.scan(pairs[100][0], 20) == pairs[100:120]

    def test_empty_fst(self):
        loaded = FST.from_bytes(FST([]).to_bytes())
        assert loaded.num_keys == 0
        assert loaded.lookup(b"x") is None

    def test_negative_values(self):
        pairs = [(b"aa", -5), (b"bb", -(2**40))]
        loaded = FST.from_bytes(FST(pairs).to_bytes())
        assert loaded.lookup(b"aa") == -5
        assert loaded.lookup(b"bb") == -(2**40)

    def test_variable_length_keys(self):
        words = sorted(terminated(word) for word in [b"a", b"abc", b"b", b"bc"])
        pairs = [(word, index) for index, word in enumerate(words)]
        loaded = FST.from_bytes(FST(pairs).to_bytes())
        for word, index in pairs:
            assert loaded.lookup(word) == index

    def test_double_roundtrip_identical(self):
        pairs = int_pairs(300)
        blob = FST(pairs, dense_levels=1).to_bytes()
        assert FST.from_bytes(blob).to_bytes() == blob


class TestMalformedBlobs:
    def test_bad_magic(self):
        blob = FST(int_pairs(10)).to_bytes()
        with pytest.raises(ValueError):
            fst_from_bytes(b"XXXX" + blob[4:])

    def test_truncated_header(self):
        with pytest.raises(ValueError):
            fst_from_bytes(b"FST1\x00")

    def test_truncated_values(self):
        blob = FST(int_pairs(50)).to_bytes()
        with pytest.raises(ValueError):
            fst_from_bytes(blob[:-12])

    def test_module_functions_match_methods(self):
        fst = FST(int_pairs(20))
        assert fst_to_bytes(fst) == fst.to_bytes()


class TestCorruptionDetection:
    """Damaged blobs must raise, never return a wrong answer."""

    def test_corrupt_error_is_value_error(self):
        assert issubclass(CorruptSerializationError, ValueError)

    def test_every_truncation_rejected(self):
        blob = FST(int_pairs(60)).to_bytes()
        for cut in range(0, len(blob), 97):
            with pytest.raises(CorruptSerializationError):
                fst_from_bytes(blob[:cut])
        with pytest.raises(CorruptSerializationError):
            fst_from_bytes(blob[:-1])

    def test_every_sampled_bit_flip_rejected(self):
        blob = FST(int_pairs(60), dense_levels=2).to_bytes()
        for bit in range(0, len(blob) * 8, 131):
            corrupted = bytearray(blob)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(CorruptSerializationError):
                fst_from_bytes(bytes(corrupted))

    def test_trailing_garbage_rejected(self):
        blob = FST(int_pairs(30)).to_bytes()
        with pytest.raises(CorruptSerializationError):
            fst_from_bytes(blob + b"\x00")

    def test_old_format_magic_rejected(self):
        blob = FST(int_pairs(10)).to_bytes()
        with pytest.raises(CorruptSerializationError):
            fst_from_bytes(b"FST1" + blob[4:])

    def test_loaded_fst_passes_invariant_validation(self):
        from repro.core.invariants import violations_of

        loaded = fst_from_bytes(FST(int_pairs(200), dense_levels=1).to_bytes())
        assert violations_of(loaded) == []


class TestSerializationFaultPoints:
    def test_encode_fault_leaves_fst_usable(self):
        fst = FST(int_pairs(40))
        with FaultInjector(site="fst.serialize.encode", fail_at=1), pytest.raises(
            InjectedFault
        ):
            fst_to_bytes(fst)
        blob = fst_to_bytes(fst)  # unharmed: serializes fine afterwards
        assert fst_from_bytes(blob).num_keys == fst.num_keys

    def test_decode_fault_propagates(self):
        blob = fst_to_bytes(FST(int_pairs(40)))
        with FaultInjector(site="fst.serialize.decode", fail_at=1), pytest.raises(
            InjectedFault
        ):
            fst_from_bytes(blob)
        assert fst_from_bytes(blob).num_keys == 40


@settings(max_examples=20, deadline=None)
@given(
    # The 0x00 terminator convention requires null-free raw keys.
    st.lists(
        st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=5).map(bytes),
        unique=True,
        min_size=1,
        max_size=40,
    )
)
def test_roundtrip_property(raw_keys):
    keys = sorted({terminated(key) for key in raw_keys})
    pairs = [(key, index) for index, key in enumerate(keys)]
    loaded = FST.from_bytes(FST(pairs).to_bytes())
    for key, value in pairs:
        assert loaded.lookup(key) == value
    assert list(loaded.items()) == pairs
