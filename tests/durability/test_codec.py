"""Tests for the durable key/value wire codec."""

import pytest

from repro.durability.codec import (
    CorruptSerializationError,
    decode_key,
    decode_value,
    encode_key,
    encode_value,
)


class TestKeyRoundtrip:
    @pytest.mark.parametrize(
        "key",
        [0, 1, -1, 255, 256, -256, 2**63 - 1, -(2**63), 2**130, -(2**200)],
    )
    def test_int_keys(self, key):
        blob = encode_key(key)
        decoded, offset = decode_key(blob, 0)
        assert decoded == key
        assert offset == len(blob)

    @pytest.mark.parametrize("key", [b"", b"a", b"hello", bytes(range(256))])
    def test_bytes_keys(self, key):
        blob = encode_key(key)
        decoded, offset = decode_key(blob, 0)
        assert decoded == key
        assert offset == len(blob)

    def test_bytearray_normalizes_to_bytes(self):
        decoded, _ = decode_key(encode_key(bytearray(b"xy")), 0)
        assert decoded == b"xy"
        assert isinstance(decoded, bytes)

    def test_consecutive_keys_decode_in_sequence(self):
        blob = encode_key(7) + encode_key(b"k") + encode_key(-9)
        first, offset = decode_key(blob, 0)
        second, offset = decode_key(blob, offset)
        third, offset = decode_key(blob, offset)
        assert (first, second, third) == (7, b"k", -9)
        assert offset == len(blob)

    def test_rejects_bool_and_other_types(self):
        with pytest.raises(TypeError):
            encode_key(True)
        with pytest.raises(TypeError):
            encode_key("string")  # type: ignore[arg-type]


class TestValueRoundtrip:
    @pytest.mark.parametrize("value", [0, 1, -1, 10**30, -(10**30)])
    def test_values(self, value):
        blob = encode_value(value)
        decoded, offset = decode_value(blob, 0)
        assert decoded == value
        assert offset == len(blob)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            encode_value(False)


class TestCorruptionRejection:
    def test_corrupt_error_is_value_error(self):
        # Callers that predate the error class catch ValueError.
        assert issubclass(CorruptSerializationError, ValueError)

    def test_truncated_key_header(self):
        with pytest.raises(CorruptSerializationError):
            decode_key(b"\x01\x01", 0)

    def test_key_payload_overrun(self):
        blob = encode_key(b"abc")[:-1]
        with pytest.raises(CorruptSerializationError):
            decode_key(blob, 0)

    def test_unknown_tag(self):
        blob = b"\x7f" + encode_key(1)[1:]
        with pytest.raises(CorruptSerializationError):
            decode_key(blob, 0)

    def test_empty_int_payload(self):
        blob = b"\x01\x00\x00\x00\x00"
        with pytest.raises(CorruptSerializationError):
            decode_key(blob, 0)

    def test_value_overrun(self):
        with pytest.raises(CorruptSerializationError):
            decode_value(encode_value(77)[:-1], 0)

    def test_absurd_declared_length_is_garbage(self):
        blob = b"\x02\xff\xff\xff\xff"
        with pytest.raises(CorruptSerializationError):
            decode_key(blob, 0)
