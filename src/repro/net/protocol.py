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
``tests/net/test_protocol.py`` hold that bar bit-flip by bit-flip.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import List, NamedTuple, Optional, Tuple, Union

from repro.durability.codec import (
    CorruptSerializationError,
    Key,
    decode_key,
    decode_value,
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
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


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
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_frame(buffer: Union[bytes, memoryview]) -> Optional[Tuple[bytes, int]]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(body, bytes_consumed)``, or None when the buffer holds a
    plausible but incomplete frame (stream callers read more bytes; at
    EOF an incomplete frame is a protocol error — see
    :func:`read_frame`).  Raises :class:`ProtocolError` on an oversized
    declared length or a CRC mismatch.
    """
    if len(buffer) < _FRAME_HEADER.size:
        return None
    length, crc = _FRAME_HEADER.unpack_from(buffer)
    _require(length <= MAX_FRAME_BYTES, f"declared frame of {length} bytes exceeds ceiling")
    end = _FRAME_HEADER.size + length
    if len(buffer) < end:
        return None
    body = bytes(buffer[_FRAME_HEADER.size : end])
    _require(zlib.crc32(body) == crc, "frame CRC mismatch")
    return body, end


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one complete frame body from an asyncio stream.

    Returns None on a clean EOF at a frame boundary.  A connection cut
    mid-frame, an oversized declared length, or a CRC mismatch raises
    :class:`ProtocolError` — the reader never blocks forever on garbage
    because every read is for an exact, pre-validated byte count.
    """
    try:
        header = await reader.readexactly(_FRAME_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-frame-header ({len(error.partial)} bytes)"
        ) from error
    length, crc = _FRAME_HEADER.unpack(header)
    _require(length <= MAX_FRAME_BYTES, f"declared frame of {length} bytes exceeds ceiling")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed mid-frame ({len(error.partial)}/{length} bytes)"
        ) from error
    _require(zlib.crc32(body) == crc, "frame CRC mismatch")
    return body


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def encode_request(request: Request) -> bytes:
    """Encode one request body (unframed)."""
    _require(request.op in OPCODES, f"unknown opcode 0x{request.op:02x}")
    tenant = request.tenant.encode("utf-8")
    _require(len(tenant) <= 255, f"tenant name of {len(tenant)} bytes exceeds 255")
    op_byte = request.op | (OP_TRACE_FLAG if request.trace is not None else 0)
    parts = [_REQ_PREFIX.pack(request.req_id, op_byte, len(tenant)), tenant]
    if request.trace is not None:
        flags = _TRACE_SAMPLED if request.trace.sampled else 0
        parts.append(
            _TRACE_CTX.pack(
                request.trace.trace_id, request.trace.parent_span_id, flags
            )
        )
    if request.op in (OP_GET, OP_DELETE):
        assert request.key is not None
        parts.append(encode_key(request.key))
    elif request.op == OP_PUT:
        assert request.key is not None and request.value is not None
        parts.append(encode_key(request.key))
        parts.append(encode_value(request.value))
    elif request.op == OP_SCAN:
        assert request.key is not None
        _require(0 < request.count <= MAX_SCAN_COUNT, f"scan count {request.count} invalid")
        parts.append(encode_key(request.key))
        parts.append(_U32.pack(request.count))
    return b"".join(parts)


def decode_request(body: bytes) -> Request:
    """Decode one request body; raises :class:`ProtocolError` on garbage."""
    try:
        _require(len(body) >= _REQ_PREFIX.size, f"request body of {len(body)} bytes too short")
        req_id, op_byte, tenant_len = _REQ_PREFIX.unpack_from(body)
        traced = bool(op_byte & OP_TRACE_FLAG)
        op = op_byte & ~OP_TRACE_FLAG
        _require(op in OPCODES, f"unknown opcode 0x{op:02x}")
        offset = _REQ_PREFIX.size
        _require(offset + tenant_len <= len(body), "tenant name overruns the body")
        try:
            tenant = body[offset : offset + tenant_len].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"tenant name is not UTF-8: {error}") from error
        offset += tenant_len
        trace: Optional[TraceContext] = None
        if traced:
            _require(offset + _TRACE_CTX.size <= len(body), "trace context truncated")
            trace_id, parent_span_id, flags = _TRACE_CTX.unpack_from(body, offset)
            offset += _TRACE_CTX.size
            _require(trace_id != 0, "trace_id 0 is reserved")
            _require(flags & ~_TRACE_SAMPLED == 0, f"trace flags 0x{flags:02x} invalid")
            trace = TraceContext(
                trace_id=trace_id,
                parent_span_id=parent_span_id,
                sampled=bool(flags & _TRACE_SAMPLED),
            )
        key: Optional[Key] = None
        value: Optional[int] = None
        count = 0
        if op in (OP_GET, OP_DELETE):
            key, offset = decode_key(body, offset)
        elif op == OP_PUT:
            key, offset = decode_key(body, offset)
            value, offset = decode_value(body, offset)
        elif op == OP_SCAN:
            key, offset = decode_key(body, offset)
            _require(offset + _U32.size <= len(body), "scan count missing")
            (count,) = _U32.unpack_from(body, offset)
            offset += _U32.size
            _require(0 < count <= MAX_SCAN_COUNT, f"scan count {count} invalid")
        _require(offset == len(body), f"{len(body) - offset} trailing bytes after request")
        return Request(req_id, op, tenant, key, value, count, trace)
    except CorruptSerializationError as error:
        # Key/value codec errors surface under the one protocol exception.
        raise ProtocolError(str(error)) from error


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def encode_response(response: Response, op: Optional[int] = None) -> bytes:
    """Encode one response body (unframed).

    ``op`` is the opcode of the request being answered; it selects the
    OK-payload shape (a GET miss and a PUT ack would otherwise be
    indistinguishable).  Error statuses need no ``op``.
    """
    _require(response.status in STATUSES, f"unknown status 0x{response.status:02x}")
    parts = [_RESP_PREFIX.pack(response.req_id, response.status)]
    if response.status != STATUS_OK:
        message = response.message.encode("utf-8")
        _require(len(message) <= 65_535, "error message too long")
        parts.append(_U16.pack(len(message)))
        parts.append(message)
        return b"".join(parts)
    if op == OP_GET:
        if response.found:
            assert response.value is not None
            parts.append(b"\x01")
            parts.append(encode_value(response.value))
        else:
            parts.append(b"\x00")
    elif op == OP_DELETE:
        parts.append(b"\x01" if response.removed else b"\x00")
    elif op == OP_SCAN:
        pairs = response.pairs or []
        _require(len(pairs) <= MAX_SCAN_COUNT, "scan response too large")
        parts.append(_U32.pack(len(pairs)))
        for key, value in pairs:
            parts.append(encode_key(key))
            parts.append(encode_value(value))
    elif op == OP_STATS:
        parts.append(_U32.pack(len(response.payload)))
        parts.append(response.payload)
    # PUT / PING / unknown: empty OK body.
    return b"".join(parts)


def decode_response(body: bytes, op: Optional[int] = None) -> Response:
    """Decode one response body.

    ``op`` is the opcode of the request this response answers (the
    client correlates by ``req_id`` and knows it); without it, an OK
    payload is returned raw in :attr:`Response.payload`.
    """
    try:
        _require(len(body) >= _RESP_PREFIX.size, f"response body of {len(body)} bytes too short")
        req_id, status = _RESP_PREFIX.unpack_from(body)
        _require(status in STATUSES, f"unknown status 0x{status:02x}")
        offset = _RESP_PREFIX.size
        if status != STATUS_OK:
            _require(offset + _U16.size <= len(body), "error message length missing")
            (length,) = _U16.unpack_from(body, offset)
            offset += _U16.size
            _require(offset + length == len(body), "error message length mismatch")
            try:
                message = body[offset:].decode("utf-8")
            except UnicodeDecodeError as error:
                raise ProtocolError(f"error message is not UTF-8: {error}") from error
            return Response(req_id=req_id, status=status, message=message)
        if op in (OP_PUT, OP_PING) or (op is None and offset == len(body)):
            _require(offset == len(body), "unexpected payload on an empty-bodied response")
            return Response(req_id=req_id, status=status)
        if op in (OP_GET, OP_DELETE):
            _require(offset < len(body), "missing presence flag")
            flag = body[offset]
            offset += 1
            _require(flag in (0, 1), f"presence flag {flag} invalid")
            if op == OP_DELETE:
                _require(offset == len(body), "trailing bytes after delete response")
                return Response(req_id=req_id, status=status, removed=bool(flag))
            if not flag:
                _require(offset == len(body), "trailing bytes after miss response")
                return Response(req_id=req_id, status=status, found=False)
            value, offset = decode_value(body, offset)
            _require(offset == len(body), "trailing bytes after get response")
            return Response(req_id=req_id, status=status, found=True, value=value)
        if op == OP_SCAN:
            _require(offset + _U32.size <= len(body), "scan pair count missing")
            (count,) = _U32.unpack_from(body, offset)
            offset += _U32.size
            _require(count <= MAX_SCAN_COUNT, f"scan response declares {count} pairs")
            pairs: List[Tuple[Key, int]] = []
            for _ in range(count):
                key, offset = decode_key(body, offset)
                value, offset = decode_value(body, offset)
                pairs.append((key, value))
            _require(offset == len(body), "trailing bytes after scan response")
            return Response(req_id=req_id, status=status, pairs=pairs)
        # STATS, or an unknown op: a u32-prefixed opaque payload.
        _require(offset + _U32.size <= len(body), "payload length missing")
        (length,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        _require(offset + length == len(body), "payload length mismatch")
        return Response(req_id=req_id, status=status, payload=bytes(body[offset:]))
    except CorruptSerializationError as error:
        raise ProtocolError(str(error)) from error
