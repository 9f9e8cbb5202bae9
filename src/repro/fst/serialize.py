"""FST binary serialization.

A static succinct trie is built once and queried forever — exactly the
structure worth persisting.  This module defines a compact, versioned
binary format:

``FST2`` magic, a CRC-32 covering the header's count fields (with the
checksum slot zeroed) and the entire body, a fixed header (key/node
counts, dense split, height), the level directory, the two dense
bitvectors, the sparse label bytes and bitvectors, and the value array
(64-bit signed little-endian).

Bitvectors serialize as ``bit_length u64 || payload words``; the
rank/select directories are rebuilt on load (they are derived data and
smaller to recompute than to ship).

Loading is paranoid: every declared count is bounds-checked against the
blob before unpacking, the body checksum is verified first, and any
mismatch raises :class:`CorruptSerializationError` — a truncated or
bit-flipped blob is rejected, never partially decoded into a structure
that answers queries wrongly.

The format is *not* the SuRF wire format (see DESIGN.md §6); it is this
library's own stable representation.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from pathlib import Path
from typing import List, Tuple, Union

from repro.faults.injector import fault_point
from repro.fst.trie import FST
from repro.succinct.bitvector import BitVector

MAGIC = b"FST2"
# magic, body crc32, keys, nodes, dense nodes, height, dense_levels, value_count
_HEADER = struct.Struct("<4sIQQQQQQ")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")

# A sanity ceiling on any declared count: one u64 element can never be
# smaller than a byte, so a count exceeding the blob length is garbage
# even before the precise per-section bounds check.
_WORD_BYTES = 8


class CorruptSerializationError(ValueError):
    """A serialized blob failed validation (truncated, bit-flipped, or
    carrying internally inconsistent counts)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptSerializationError(message)


def _read_u64(blob: bytes, offset: int) -> Tuple[int, int]:
    _require(offset + 8 <= len(blob), f"truncated u64 at offset {offset}")
    return _U64.unpack_from(blob, offset)[0], offset + 8


def _bitvector_to_bytes(vector: BitVector) -> bytes:
    words = vector._words  # serialization is a friend of the class
    parts = [_U64.pack(len(vector)), _U64.pack(len(words))]
    parts.extend(_U64.pack(word) for word in words)
    return b"".join(parts)


def _bitvector_from_bytes(blob: bytes, offset: int) -> Tuple[BitVector, int]:
    bit_length, offset = _read_u64(blob, offset)
    word_count, offset = _read_u64(blob, offset)
    _require(
        word_count == (bit_length + 63) // 64,
        f"bitvector declares {word_count} words for {bit_length} bits",
    )
    _require(
        offset + _WORD_BYTES * word_count <= len(blob),
        f"bitvector payload of {word_count} words overruns the blob",
    )
    words = array(
        "Q",
        (_U64.unpack_from(blob, offset + 8 * index)[0] for index in range(word_count)),
    )
    if words and bit_length % 64:
        _require(
            words[-1] >> (bit_length % 64) == 0,
            "bitvector has bits set beyond its declared length",
        )
    vector = BitVector()
    vector._words = words
    vector._size = bit_length
    offset += 8 * word_count
    return vector.seal(), offset


def fst_to_bytes(fst: FST) -> bytes:
    """Serialize ``fst`` to a self-contained, checksummed byte string."""
    fault_point("fst.serialize.encode")
    body_parts: List[bytes] = [_U64.pack(len(fst._level_first_node))]
    body_parts.extend(_U64.pack(entry) for entry in fst._level_first_node)
    body_parts.append(_bitvector_to_bytes(fst._dense_labels))
    body_parts.append(_bitvector_to_bytes(fst._dense_haschild))
    body_parts.append(_U64.pack(len(fst._sparse_labels)))
    body_parts.append(fst._sparse_labels)
    body_parts.append(_bitvector_to_bytes(fst._sparse_haschild))
    body_parts.append(_bitvector_to_bytes(fst._sparse_louds))
    body_parts.extend(_I64.pack(value) for value in fst._values)
    body = b"".join(body_parts)
    # The checksum covers the count fields too: the header is packed with
    # a zero in the crc slot, hashed together with the body, and repacked.
    fields = (
        fst.num_keys,
        fst.num_nodes,
        fst.num_dense_nodes,
        fst.height,
        fst.dense_levels,
        len(fst._values),
    )
    crc = zlib.crc32(body, zlib.crc32(_HEADER.pack(MAGIC, 0, *fields))) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, crc, *fields) + body


def fst_to_file(fst: FST, path: Union[str, Path]) -> None:
    """Serialize ``fst`` to ``path`` with crash-safe temp-file hygiene.

    The blob is written to a ``tempfile`` alongside the destination,
    fsynced, published with one ``os.replace``, and the parent
    directory is fsynced so the name survives a crash — the
    :mod:`repro.core.atomicio` discipline.  The temporary file is
    removed on every error path (including a fault injected at the
    ``fst.serialize.swap`` point), so a failed write can never leak a
    partial file or clobber a previous good one.
    """
    from repro.core.atomicio import discard_aside, publish_aside, write_aside

    final = Path(path)
    blob = fst_to_bytes(fst)
    tmp = write_aside(final, blob)
    try:
        fault_point("fst.serialize.swap")
        publish_aside(tmp, final)
    except BaseException:
        discard_aside(tmp)
        raise


def fst_from_file(path: Union[str, Path]) -> FST:
    """Load an FST published by :func:`fst_to_file`.

    Validation is exactly :func:`fst_from_bytes`'s: the checksum and
    every bounds check run before any structure is assembled.
    """
    return fst_from_bytes(Path(path).read_bytes())


def fst_from_bytes(blob: bytes) -> FST:
    """Reconstruct an :class:`FST` serialized by :func:`fst_to_bytes`.

    Raises :class:`CorruptSerializationError` (a :class:`ValueError`) on
    any checksum, bounds, or consistency failure.
    """
    if len(blob) < _HEADER.size:
        raise CorruptSerializationError("truncated FST blob (incomplete header)")
    magic, crc, num_keys, num_nodes, num_dense, height, dense_levels, value_count = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != MAGIC:
        raise CorruptSerializationError(f"bad magic {magic!r}; not an FST blob")
    body = blob[_HEADER.size :]
    zeroed_header = _HEADER.pack(
        magic, 0, num_keys, num_nodes, num_dense, height, dense_levels, value_count
    )
    _require(
        zlib.crc32(body, zlib.crc32(zeroed_header)) & 0xFFFFFFFF == crc,
        "FST checksum mismatch (truncated or bit-flipped blob)",
    )
    fault_point("fst.serialize.decode")
    offset = _HEADER.size

    level_count, offset = _read_u64(blob, offset)
    _require(
        offset + 8 * level_count <= len(blob),
        f"level directory of {level_count} entries overruns the blob",
    )
    _require(
        level_count == height,
        f"level directory holds {level_count} entries for height {height}",
    )
    level_first_node = [
        _U64.unpack_from(blob, offset + 8 * index)[0] for index in range(level_count)
    ]
    offset += 8 * level_count
    _require(
        all(entry < num_nodes for entry in level_first_node),
        "level directory points beyond the node count",
    )

    dense_labels, offset = _bitvector_from_bytes(blob, offset)
    dense_haschild, offset = _bitvector_from_bytes(blob, offset)
    _require(
        len(dense_labels) == 256 * num_dense,
        f"dense label bitmap has {len(dense_labels)} bits for {num_dense} nodes",
    )
    _require(
        len(dense_haschild) == len(dense_labels),
        "dense has-child bitmap length differs from the label bitmap",
    )

    sparse_count, offset = _read_u64(blob, offset)
    _require(
        offset + sparse_count <= len(blob),
        f"sparse label section of {sparse_count} bytes overruns the blob",
    )
    sparse_labels = bytes(blob[offset : offset + sparse_count])
    offset += sparse_count

    sparse_haschild, offset = _bitvector_from_bytes(blob, offset)
    sparse_louds, offset = _bitvector_from_bytes(blob, offset)
    _require(
        len(sparse_haschild) == sparse_count and len(sparse_louds) == sparse_count,
        "sparse bitvector lengths differ from the label count",
    )

    _require(
        offset + 8 * value_count <= len(blob),
        f"value section of {value_count} entries overruns the blob",
    )
    values = [
        _I64.unpack_from(blob, offset + 8 * index)[0] for index in range(value_count)
    ]
    offset += 8 * value_count
    _require(offset == len(blob), f"{len(blob) - offset} trailing bytes after values")
    _require(
        value_count == num_keys,
        f"{value_count} values for {num_keys} keys",
    )

    # Assemble without re-building from keys.
    fst = FST.__new__(FST)
    from repro.sim.counters import OpCounters

    fst.counters = OpCounters()
    fst.dense_levels = dense_levels
    fst._num_keys = num_keys
    fst._height = height
    fst._num_nodes = num_nodes
    fst._num_dense_nodes = num_dense
    fst._level_first_node = level_first_node
    fst._dense_labels = dense_labels
    fst._dense_haschild = dense_haschild
    fst._sparse_labels = sparse_labels
    fst._sparse_haschild = sparse_haschild
    fst._sparse_louds = sparse_louds
    fst._values = values
    fst._dense_hc_total = dense_haschild.ones if len(dense_haschild) else 0
    fst._dense_terminal_total = (
        (dense_labels.ones - dense_haschild.ones) if len(dense_labels) else 0
    )
    return fst
