"""The wire protocol: length-prefixed, CRC-framed request/response bodies.

Framing follows the WAL discipline from :mod:`repro.durability.wal` —
fixed ``struct.Struct`` headers, ``zlib.crc32`` over the body, every
declared length bounds-checked before anything is unpacked:

.. code-block:: text

    frame    := body_len u32 || crc32(body) u32 || body     -- 8-byte header
    request  := req_id u64 || opcode u8 || tlen u8 || tenant utf-8
                || [trace_ctx] || payload
    response := req_id u64 || status u8 || payload

The opcode byte's low 7 bits name the operation; the high bit
(:data:`OP_TRACE_FLAG`, the protocol's one version bump so far) declares
that a 17-byte trace context — ``trace_id u64 || parent_span_id u64 ||
flags u8`` (flags bit 0 = sampled) — follows the tenant name.  Frames
without the bit decode exactly as before, so old clients keep working
against new servers and vice versa; servers that predate the bit reject
flagged frames as unknown opcodes rather than misreading the payload.

Request payloads reuse the tagged key/value codec from
:mod:`repro.durability.codec` (int or bytes keys, int values):

========  =======================================
GET       key
PUT       key || value
DELETE    key
SCAN      key || count u32
PING      (empty)
STATS     (empty)
========  =======================================

Response payloads by status: an OK GET carries ``found u8 [|| value]``,
an OK DELETE ``removed u8``, an OK SCAN ``count u32 || (key||value)*``,
an OK STATS a ``u32``-prefixed UTF-8 JSON blob, and every error status
a ``u16``-prefixed UTF-8 message.

Anything inconsistent — a frame longer than :data:`MAX_FRAME_BYTES`, a
CRC mismatch, a truncated body, an unknown opcode/status/tag — raises
:class:`ProtocolError`.  The server closes the connection on it rather
than guessing at resynchronization; the fuzz tests in
``tests/net/test_protocol.py`` hold that bar bit-flip by bit-flip, and
``tests/net/test_wire_golden.py`` pins every frame's bytes and every
error's message.

Every codec call is on the per-request path of one end or the other, so
each check is written inline and every fixed-width field goes through a
bound ``struct`` method: a GET's body decodes, and its reply encodes,
without a Python frame per check or per field.  Only a field of a type
the fast path does not take (an int subclass, a ``bytearray`` key) goes
through :mod:`repro.durability.codec`'s checked encoders.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import List, NamedTuple, Optional, Tuple, Union

from repro.durability.codec import (
    MAX_ITEM_BYTES,
    TAG_BYTES,
    TAG_INT,
    CorruptSerializationError,
    Key,
    encode_key,
    encode_value,
)
from repro.obs.distributed import TraceContext

#: One frame body longer than this is garbage framing, not data (4 MiB).
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Hard ceiling on one SCAN response (keeps a reply inside one frame).
MAX_SCAN_COUNT = 65_536

_FRAME_HEADER = struct.Struct("<II")
_REQ_PREFIX = struct.Struct("<QBB")   # req_id, opcode, tenant length
_RESP_PREFIX = struct.Struct("<QB")   # req_id, status
_TRACE_CTX = struct.Struct("<QQB")    # trace_id, parent_span_id, flags
_ERROR_HEAD = struct.Struct("<QBH")   # req_id, status, message length
_FLAG_REPLY = struct.Struct("<QBB")   # req_id, status, one flag byte
_GET_HIT = struct.Struct("<QBBI")    # req_id, status, found=1, value length
_KEY_HEADER = struct.Struct("<BI")   # tag, payload length
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

_HEADER_SIZE = _FRAME_HEADER.size
_PREFIX_SIZE = _REQ_PREFIX.size
_pack_frame_header = _FRAME_HEADER.pack
_unpack_frame_header = _FRAME_HEADER.unpack_from
_pack_request_prefix = _REQ_PREFIX.pack
_unpack_request_prefix = _REQ_PREFIX.unpack_from
_pack_response_prefix = _RESP_PREFIX.pack
_unpack_response_prefix = _RESP_PREFIX.unpack_from
_pack_flag_reply = _FLAG_REPLY.pack
_pack_get_hit = _GET_HIT.pack
_pack_key_header = _KEY_HEADER.pack
_unpack_key_header = _KEY_HEADER.unpack_from
_pack_u32 = _U32.pack
_unpack_u32 = _U32.unpack_from
_crc32 = zlib.crc32

#: Builds a named tuple from all of its fields without the Python-level
#: ``__new__`` frame that calling ``Request(...)`` / ``Response(...)`` enters.
_new_tuple = tuple.__new__

# -- opcodes -------------------------------------------------------------
OP_GET = 0x01
OP_PUT = 0x02
OP_DELETE = 0x03
OP_SCAN = 0x04
OP_PING = 0x05
OP_STATS = 0x06

#: High bit of the opcode byte: a trace context follows the tenant name.
OP_TRACE_FLAG = 0x80

#: Trace-context flags byte: bit 0 = sampled; the rest must be zero.
_TRACE_SAMPLED = 0x01

OPCODES = frozenset({OP_GET, OP_PUT, OP_DELETE, OP_SCAN, OP_PING, OP_STATS})

#: Opcodes whose payload starts with a key.
_KEYED = frozenset({OP_GET, OP_PUT, OP_DELETE, OP_SCAN})

#: Human-readable opcode names (span/console attributes).
OP_NAMES = {
    OP_GET: "get",
    OP_PUT: "put",
    OP_DELETE: "delete",
    OP_SCAN: "scan",
    OP_PING: "ping",
    OP_STATS: "stats",
}

# -- response statuses ---------------------------------------------------
STATUS_OK = 0x00
STATUS_THROTTLED = 0x10       # ops/sec quota exhausted (backpressure)
STATUS_OVERLOADED = 0x11      # bounded inflight queue full (backpressure)
STATUS_UNKNOWN_TENANT = 0x12
STATUS_BAD_REQUEST = 0x13
STATUS_SERVER_ERROR = 0x14

STATUSES = frozenset(
    {
        STATUS_OK,
        STATUS_THROTTLED,
        STATUS_OVERLOADED,
        STATUS_UNKNOWN_TENANT,
        STATUS_BAD_REQUEST,
        STATUS_SERVER_ERROR,
    }
)

#: Statuses that mean "shed by admission control, retry later".
BACKPRESSURE_STATUSES = frozenset({STATUS_THROTTLED, STATUS_OVERLOADED})


class ProtocolError(CorruptSerializationError):
    """A frame or body that violates the wire contract."""


class Request(NamedTuple):
    """One decoded client request."""

    req_id: int
    op: int
    tenant: str
    key: Optional[Key] = None
    value: Optional[int] = None
    count: int = 0
    trace: Optional[TraceContext] = None


class Response(NamedTuple):
    """One decoded server response."""

    req_id: int
    status: int
    value: Optional[int] = None
    found: bool = False
    removed: bool = False
    pairs: Optional[List[Tuple[Key, int]]] = None
    message: str = ""
    payload: bytes = b""

    @property
    def ok(self) -> bool:
        """True when the request was served (not shed or failed)."""
        return self.status == STATUS_OK

    @property
    def shed(self) -> bool:
        """True when admission control answered with backpressure."""
        return self.status in BACKPRESSURE_STATUSES


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(body: bytes) -> bytes:
    """Wrap ``body`` in the length + CRC frame header."""
    size = len(body)
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {size} bytes exceeds {MAX_FRAME_BYTES}")
    return _pack_frame_header(size, _crc32(body)) + body


def decode_frame(buffer: Union[bytes, memoryview]) -> Optional[Tuple[bytes, int]]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(body, bytes_consumed)``, or None when the buffer holds a
    plausible but incomplete frame (stream callers read more bytes; at
    EOF an incomplete frame is a protocol error — see
    :func:`read_frame`).  Raises :class:`ProtocolError` on an oversized
    declared length or a CRC mismatch.
    """
    if len(buffer) < _HEADER_SIZE:
        return None
    length, crc = _unpack_frame_header(buffer)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"declared frame of {length} bytes exceeds ceiling")
    end = _HEADER_SIZE + length
    if len(buffer) < end:
        return None
    body = bytes(buffer[_HEADER_SIZE:end])
    if _crc32(body) != crc:
        raise ProtocolError("frame CRC mismatch")
    return body, end


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one complete frame body from an asyncio stream.

    Returns None on a clean EOF at a frame boundary.  A connection cut
    mid-frame, an oversized declared length, or a CRC mismatch raises
    :class:`ProtocolError` — the reader never blocks forever on garbage
    because every read is for an exact, pre-validated byte count.
    """
    try:
        header = await reader.readexactly(_HEADER_SIZE)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-frame-header ({len(error.partial)} bytes)"
        ) from error
    length, crc = _unpack_frame_header(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"declared frame of {length} bytes exceeds ceiling")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed mid-frame ({len(error.partial)}/{length} bytes)"
        ) from error
    if _crc32(body) != crc:
        raise ProtocolError("frame CRC mismatch")
    return body


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def encode_request(request: Request) -> bytes:
    """Encode one request body (unframed)."""
    req_id, op, tenant_name, key, value, count, trace = request
    if op not in OPCODES:
        raise ProtocolError(f"unknown opcode 0x{op:02x}")
    tenant = tenant_name.encode("utf-8")
    if len(tenant) > 255:
        raise ProtocolError(f"tenant name of {len(tenant)} bytes exceeds 255")
    if trace is None:
        body = _pack_request_prefix(req_id, op, len(tenant)) + tenant
    else:
        flags = _TRACE_SAMPLED if trace.sampled else 0
        body = (
            _pack_request_prefix(req_id, op | OP_TRACE_FLAG, len(tenant))
            + tenant
            + _TRACE_CTX.pack(trace.trace_id, trace.parent_span_id, flags)
        )
    if op in (OP_GET, OP_DELETE):
        assert key is not None
        body += encode_key(key)
    elif op == OP_PUT:
        assert key is not None and value is not None
        body += encode_key(key) + encode_value(value)
    elif op == OP_SCAN:
        assert key is not None
        if not 0 < count <= MAX_SCAN_COUNT:
            raise ProtocolError(f"scan count {count} invalid")
        body += encode_key(key) + _pack_u32(count)
    return body


def decode_request(body: bytes) -> Request:
    """Decode one request body; raises :class:`ProtocolError` on garbage."""
    size = len(body)
    if size < _PREFIX_SIZE:
        raise ProtocolError(f"request body of {size} bytes too short")
    req_id, op_byte, tenant_len = _unpack_request_prefix(body)
    op = op_byte & ~OP_TRACE_FLAG
    if op not in OPCODES:
        raise ProtocolError(f"unknown opcode 0x{op:02x}")
    offset = _PREFIX_SIZE + tenant_len
    if offset > size:
        raise ProtocolError("tenant name overruns the body")
    try:
        tenant = body[_PREFIX_SIZE:offset].decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(f"tenant name is not UTF-8: {error}") from error
    trace: Optional[TraceContext] = None
    if op_byte & OP_TRACE_FLAG:
        if offset + _TRACE_CTX.size > size:
            raise ProtocolError("trace context truncated")
        trace_id, parent_span_id, flags = _TRACE_CTX.unpack_from(body, offset)
        offset += _TRACE_CTX.size
        if trace_id == 0:
            raise ProtocolError("trace_id 0 is reserved")
        if flags & ~_TRACE_SAMPLED:
            raise ProtocolError(f"trace flags 0x{flags:02x} invalid")
        trace = TraceContext(
            trace_id=trace_id,
            parent_span_id=parent_span_id,
            sampled=bool(flags & _TRACE_SAMPLED),
        )
    key: Optional[Key] = None
    value: Optional[int] = None
    count = 0
    if op in _KEYED:
        if offset + 5 > size:
            raise ProtocolError(f"truncated key header at offset {offset}")
        tag, length = _unpack_key_header(body, offset)
        offset += 5
        if length > MAX_ITEM_BYTES:
            raise ProtocolError(f"key declares {length} bytes (over the ceiling)")
        end = offset + length
        if end > size:
            raise ProtocolError(f"key payload of {length} bytes overruns the blob")
        if tag == TAG_INT:
            if not length:
                raise ProtocolError("int key with empty payload")
            key = int.from_bytes(body[offset:end], "big", signed=True)
        elif tag == TAG_BYTES:
            key = body[offset:end]
        else:
            raise ProtocolError(f"unknown key tag 0x{tag:02x}")
        offset = end
        if op == OP_PUT:
            if offset + 4 > size:
                raise ProtocolError(f"truncated value header at offset {offset}")
            (length,) = _unpack_u32(body, offset)
            offset += 4
            if not 1 <= length <= MAX_ITEM_BYTES:
                raise ProtocolError(f"value declares {length} bytes")
            end = offset + length
            if end > size:
                raise ProtocolError(f"value payload of {length} bytes overruns the blob")
            value = int.from_bytes(body[offset:end], "big", signed=True)
            offset = end
        elif op == OP_SCAN:
            if offset + 4 > size:
                raise ProtocolError("scan count missing")
            (count,) = _unpack_u32(body, offset)
            offset += 4
            if not 0 < count <= MAX_SCAN_COUNT:
                raise ProtocolError(f"scan count {count} invalid")
    if offset != size:
        raise ProtocolError(f"{size - offset} trailing bytes after request")
    return _new_tuple(Request, (req_id, op, tenant, key, value, count, trace))


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def encode_response(response: Response, op: Optional[int] = None) -> bytes:
    """Encode one response body (unframed).

    ``op`` is the opcode of the request being answered; it selects the
    OK-payload shape (a GET miss and a PUT ack would otherwise be
    indistinguishable).  Error statuses need no ``op``.
    """
    req_id, status = response[0], response[1]
    if status != STATUS_OK:
        if status not in STATUSES:
            raise ProtocolError(f"unknown status 0x{status:02x}")
        message = response.message.encode("utf-8")
        if len(message) > 65_535:
            raise ProtocolError("error message too long")
        return _ERROR_HEAD.pack(req_id, status, len(message)) + message
    if op == OP_GET:
        if not response.found:
            return _pack_flag_reply(req_id, STATUS_OK, 0)
        value = response.value
        if type(value) is not int:  # an int subclass, or not an int: the checked encoder
            assert value is not None
            return _pack_flag_reply(req_id, STATUS_OK, 1) + encode_value(value)
        payload = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        return _pack_get_hit(req_id, STATUS_OK, 1, len(payload)) + payload
    if op == OP_DELETE:
        return _pack_flag_reply(req_id, STATUS_OK, 1 if response.removed else 0)
    if op == OP_SCAN:
        pairs = response.pairs or []
        if len(pairs) > MAX_SCAN_COUNT:
            raise ProtocolError("scan response too large")
        parts = [_pack_response_prefix(req_id, STATUS_OK), _pack_u32(len(pairs))]
        append = parts.append
        for key, value in pairs:
            if type(key) is int:
                payload = key.to_bytes((key.bit_length() + 8) // 8, "big", signed=True)
                append(_pack_key_header(TAG_INT, len(payload)))
                append(payload)
            elif type(key) is bytes:
                append(_pack_key_header(TAG_BYTES, len(key)))
                append(key)
            else:
                append(encode_key(key))
            if type(value) is int:
                payload = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
                append(_pack_u32(len(payload)))
                append(payload)
            else:
                append(encode_value(value))
        return b"".join(parts)
    if op == OP_STATS:
        payload = response.payload
        return _pack_response_prefix(req_id, STATUS_OK) + _pack_u32(len(payload)) + payload
    # PUT / PING / unknown: empty OK body.
    return _pack_response_prefix(req_id, STATUS_OK)


def decode_response(body: bytes, op: Optional[int] = None) -> Response:
    """Decode one response body.

    ``op`` is the opcode of the request this response answers (the
    client correlates by ``req_id`` and knows it); without it, an OK
    payload is returned raw in :attr:`Response.payload`.
    """
    # Offsets are literal: the prefix is 9 bytes (req_id u64, status u8),
    # followed by an error's u16 length, a GET/DELETE flag byte, or a u32.
    size = len(body)
    if size < 9:
        raise ProtocolError(f"response body of {size} bytes too short")
    req_id, status = _unpack_response_prefix(body)
    if status != STATUS_OK:
        if status not in STATUSES:
            raise ProtocolError(f"unknown status 0x{status:02x}")
        if size < 11:
            raise ProtocolError("error message length missing")
        if 11 + _U16.unpack_from(body, 9)[0] != size:
            raise ProtocolError("error message length mismatch")
        try:
            message = body[11:].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"error message is not UTF-8: {error}") from error
        return Response(req_id=req_id, status=status, message=message)
    if op in (OP_PUT, OP_PING) or (op is None and size == 9):
        if size != 9:
            raise ProtocolError("unexpected payload on an empty-bodied response")
        return _new_tuple(Response, (req_id, STATUS_OK, None, False, False, None, "", b""))
    if op in (OP_GET, OP_DELETE):
        if size == 9:
            raise ProtocolError("missing presence flag")
        flag = body[9]
        if flag > 1:
            raise ProtocolError(f"presence flag {flag} invalid")
        if op == OP_DELETE:
            if size != 10:
                raise ProtocolError("trailing bytes after delete response")
            return Response(req_id=req_id, status=STATUS_OK, removed=bool(flag))
        if not flag:
            if size != 10:
                raise ProtocolError("trailing bytes after miss response")
            return _new_tuple(Response, (req_id, STATUS_OK, None, False, False, None, "", b""))
        if size < 14:
            raise ProtocolError("truncated value header at offset 10")
        (length,) = _unpack_u32(body, 10)
        if not 1 <= length <= MAX_ITEM_BYTES:
            raise ProtocolError(f"value declares {length} bytes")
        end = 14 + length
        if end > size:
            raise ProtocolError(f"value payload of {length} bytes overruns the blob")
        if end != size:
            raise ProtocolError("trailing bytes after get response")
        value = int.from_bytes(body[14:end], "big", signed=True)
        return _new_tuple(Response, (req_id, STATUS_OK, value, True, False, None, "", b""))
    if op == OP_SCAN:
        if size < 13:
            raise ProtocolError("scan pair count missing")
        (count,) = _unpack_u32(body, 9)
        if count > MAX_SCAN_COUNT:
            raise ProtocolError(f"scan response declares {count} pairs")
        offset = 13
        pairs: List[Tuple[Key, int]] = []
        for _ in range(count):
            if offset + 5 > size:
                raise ProtocolError(f"truncated key header at offset {offset}")
            tag, length = _unpack_key_header(body, offset)
            offset += 5
            if length > MAX_ITEM_BYTES:
                raise ProtocolError(f"key declares {length} bytes (over the ceiling)")
            end = offset + length
            if end > size:
                raise ProtocolError(f"key payload of {length} bytes overruns the blob")
            key: Key
            if tag == TAG_INT:
                if not length:
                    raise ProtocolError("int key with empty payload")
                key = int.from_bytes(body[offset:end], "big", signed=True)
            elif tag == TAG_BYTES:
                key = body[offset:end]
            else:
                raise ProtocolError(f"unknown key tag 0x{tag:02x}")
            if end + 4 > size:
                raise ProtocolError(f"truncated value header at offset {end}")
            (length,) = _unpack_u32(body, end)
            offset = end + 4
            if not 1 <= length <= MAX_ITEM_BYTES:
                raise ProtocolError(f"value declares {length} bytes")
            end = offset + length
            if end > size:
                raise ProtocolError(f"value payload of {length} bytes overruns the blob")
            pairs.append((key, int.from_bytes(body[offset:end], "big", signed=True)))
            offset = end
        if offset != size:
            raise ProtocolError("trailing bytes after scan response")
        return Response(req_id=req_id, status=STATUS_OK, pairs=pairs)
    # STATS, or an unknown op: a u32-prefixed opaque payload.
    if size < 13:
        raise ProtocolError("payload length missing")
    if 13 + _unpack_u32(body, 9)[0] != size:
        raise ProtocolError("payload length mismatch")
    return Response(req_id=req_id, status=STATUS_OK, payload=bytes(body[13:]))
