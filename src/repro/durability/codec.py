"""Key/value wire codec shared by WAL records and snapshots.

The service's key space is heterogeneous — ints for the B+-tree
families, byte strings for the tries — and Python ints are unbounded,
so the codec is tagged and length-prefixed rather than fixed-width:

``key``
    one tag byte (``0x01`` int, ``0x02`` bytes), a ``u32`` payload
    length, and the payload — ints as minimal-length signed big-endian
    two's complement, byte strings raw.

``value``
    a ``u32`` length plus the same signed big-endian int encoding
    (values are always ints in the service surface).

Decoding checks before it reads: every declared length is
bounds-checked against the blob before unpacking (:func:`_require`),
and any inconsistency raises :class:`CorruptSerializationError` rather
than returning a half-decoded record.  The WAL, the snapshot, the
manifest and the wire protocol raise the same error on the same
discipline.
"""

from __future__ import annotations

import struct
from typing import Tuple, Union

Key = Union[int, bytes]

#: Key tags (the wire protocol's codec reads them too).
TAG_INT = 0x01
TAG_BYTES = 0x02

_U32 = struct.Struct("<I")

#: Sanity ceiling on one declared key/value payload (64 MiB): a longer
#: declaration is garbage framing, not data.
MAX_ITEM_BYTES = 64 * 1024 * 1024


class CorruptSerializationError(ValueError):
    """A serialized blob failed validation (truncated, bit-flipped, or
    carrying internally inconsistent counts)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptSerializationError(message)


def _int_to_bytes(number: int) -> bytes:
    length = (number.bit_length() + 8) // 8
    return number.to_bytes(length or 1, "big", signed=True)


def encode_key(key: Key) -> bytes:
    """Tagged, length-prefixed encoding of one int or bytes key."""
    if isinstance(key, bool) or not isinstance(key, (int, bytes, bytearray)):
        raise TypeError(f"durable keys are int or bytes, got {type(key).__name__}")
    if isinstance(key, int):
        payload = _int_to_bytes(key)
        return bytes((TAG_INT,)) + _U32.pack(len(payload)) + payload
    payload = bytes(key)
    return bytes((TAG_BYTES,)) + _U32.pack(len(payload)) + payload


def decode_key(blob: bytes, offset: int) -> Tuple[Key, int]:
    """Decode one key at ``offset``; returns ``(key, next_offset)``."""
    _require(offset + 5 <= len(blob), f"truncated key header at offset {offset}")
    tag = blob[offset]
    (length,) = _U32.unpack_from(blob, offset + 1)
    offset += 5
    _require(length <= MAX_ITEM_BYTES, f"key declares {length} bytes (over the ceiling)")
    _require(offset + length <= len(blob), f"key payload of {length} bytes overruns the blob")
    payload = blob[offset : offset + length]
    offset += length
    if tag == TAG_INT:
        _require(length >= 1, "int key with empty payload")
        return int.from_bytes(payload, "big", signed=True), offset
    if tag == TAG_BYTES:
        return payload, offset
    raise CorruptSerializationError(f"unknown key tag 0x{tag:02x}")


def encode_value(value: int) -> bytes:
    """Length-prefixed signed big-endian encoding of one int value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"durable values are ints, got {type(value).__name__}")
    payload = _int_to_bytes(value)
    return _U32.pack(len(payload)) + payload


def decode_value(blob: bytes, offset: int) -> Tuple[int, int]:
    """Decode one value at ``offset``; returns ``(value, next_offset)``."""
    _require(offset + 4 <= len(blob), f"truncated value header at offset {offset}")
    (length,) = _U32.unpack_from(blob, offset)
    offset += 4
    _require(1 <= length <= MAX_ITEM_BYTES, f"value declares {length} bytes")
    _require(offset + length <= len(blob), f"value payload of {length} bytes overruns the blob")
    return int.from_bytes(blob[offset : offset + length], "big", signed=True), offset + length
