"""The wire bytes and the codec's error messages, pinned byte for byte.

Every opcode and status, GET hit and miss, empty and non-empty scans,
traced and untraced requests and int and bytes keys are encoded and
compared with the hex the codec wrote before its checks went inline;
each frame also decodes back to what was encoded.  Every malformed body
raises :class:`ProtocolError` with the exact message it raised then.
The fuzz tests in ``test_protocol.py`` hold the broader bar (nothing
malformed decodes); these hold that nothing moved.
"""

import struct

import pytest

from repro.net.protocol import (
    MAX_FRAME_BYTES,
    MAX_SCAN_COUNT,
    OP_DELETE,
    OP_GET,
    OP_PING,
    OP_PUT,
    OP_SCAN,
    OP_STATS,
    STATUS_BAD_REQUEST,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SERVER_ERROR,
    STATUS_THROTTLED,
    STATUS_UNKNOWN_TENANT,
    ProtocolError,
    Request,
    Response,
    decode_frame,
    decode_request,
    decode_response,
    encode_frame,
    encode_request,
    encode_response,
)
from repro.obs.distributed import TraceContext

SAMPLED = TraceContext(trace_id=0x1122334455667788, parent_span_id=0x99AABBCCDDEEFF00, sampled=True)
UNSAMPLED = TraceContext(trace_id=7, parent_span_id=0, sampled=False)

REQUESTS = {
    "get_int": Request(1, OP_GET, "alpha", key=42),
    "get_negative_int": Request(2, OP_GET, "alpha", key=-129),
    "get_bytes": Request(3, OP_GET, "mail", key=b"user@example.com"),
    "get_big_int": Request(2**64 - 1, OP_GET, "t", key=2**70),
    "put_int": Request(4, OP_PUT, "alpha", key=7, value=8),
    "put_bytes": Request(5, OP_PUT, "mail", key=b"", value=-(2**40)),
    "delete_int": Request(6, OP_DELETE, "alpha", key=0),
    "scan_int": Request(7, OP_SCAN, "alpha", key=100, count=20),
    "scan_bytes": Request(8, OP_SCAN, "mail", key=b"a", count=MAX_SCAN_COUNT),
    "ping": Request(9, OP_PING, ""),
    "stats": Request(10, OP_STATS, "ops"),
    "get_traced_sampled": Request(11, OP_GET, "alpha", key=5, trace=SAMPLED),
    "put_traced_unsampled": Request(12, OP_PUT, "alpha", key=5, value=6, trace=UNSAMPLED),
    "scan_traced": Request(13, OP_SCAN, "mail", key=b"k", count=3, trace=SAMPLED),
    "unicode_tenant": Request(14, OP_PING, "t\u00e9nant"),
}

#: ``(response, op of the request it answers)``.
RESPONSES = {
    "get_hit": (Response(1, STATUS_OK, value=7, found=True), OP_GET),
    "get_hit_negative": (Response(2, STATUS_OK, value=-(2**63), found=True), OP_GET),
    "get_hit_zero": (Response(3, STATUS_OK, value=0, found=True), OP_GET),
    "get_miss": (Response(4, STATUS_OK), OP_GET),
    "put_ack": (Response(5, STATUS_OK), OP_PUT),
    "delete_removed": (Response(6, STATUS_OK, removed=True), OP_DELETE),
    "delete_absent": (Response(7, STATUS_OK), OP_DELETE),
    "scan_empty": (Response(8, STATUS_OK, pairs=[]), OP_SCAN),
    "scan_int": (Response(9, STATUS_OK, pairs=[(1, 2), (-3, 400)]), OP_SCAN),
    "scan_bytes": (Response(10, STATUS_OK, pairs=[(b"a", 1), (b"bc", -1)]), OP_SCAN),
    "ping": (Response(11, STATUS_OK), OP_PING),
    "stats": (Response(12, STATUS_OK, payload=b'{"a": 1}'), OP_STATS),
    "throttled": (Response(13, STATUS_THROTTLED, message="throttled"), OP_GET),
    "overloaded": (Response(14, STATUS_OVERLOADED, message="overloaded"), OP_PUT),
    "unknown_tenant": (Response(15, STATUS_UNKNOWN_TENANT, message="unknown tenant 'x'"), OP_GET),
    "bad_request": (
        Response(16, STATUS_BAD_REQUEST, message="tenant 'a' orders int keys, got bytes"),
        OP_GET,
    ),
    "server_error": (Response(2**64 - 1, STATUS_SERVER_ERROR, message="RuntimeError: \u00e9"), OP_SCAN),
    "error_empty_message": (Response(17, STATUS_SERVER_ERROR), None),
}

REQUEST_FRAMES = {
    'get_int': '15000000cf49813201000000000000000105616c70686101010000002a',
    'get_negative_int': '16000000fc33f25a02000000000000000105616c7068610102000000ff7f',
    'get_bytes': '23000000ccb52054030000000000000001046d61696c021000000075736572406578616d706c652e636f6d',
    'get_big_int': '190000000fc8e220ffffffffffffffff0101740109000000400000000000000000',
    'put_int': '1a00000027e07ae904000000000000000205616c7068610101000000070100000008',
    'put_bytes': '1d000000c307460c050000000000000002046d61696c020000000006000000ff0000000000',
    'delete_int': '150000000ab381e006000000000000000305616c706861010100000000',
    'scan_int': '1900000043c9a33d07000000000000000405616c70686101010000006414000000',
    'scan_bytes': '1800000077da3186080000000000000004046d61696c02010000006100000100',
    'ping': '0a000000f9b7e86209000000000000000500',
    'stats': '0d00000087af660d0a0000000000000006036f7073',
    'get_traced_sampled': '2600000057b3f8570b000000000000008105616c706861887766554433221100ffeeddccbbaa9901010100000005',
    'put_traced_unsampled': '2b0000006b9cf6920c000000000000008205616c70686107000000000000000000000000000000000101000000050100000006',
    'scan_traced': '2900000092f187560d0000000000000084046d61696c887766554433221100ffeeddccbbaa990102010000006b03000000',
    'unicode_tenant': '1100000093f20f040e00000000000000050774c3a96e616e74',
}
RESPONSE_FRAMES = {
    'get_hit': '0f000000b9b77006010000000000000000010100000007',
    'get_hit_negative': '17000000a295d89f0200000000000000000109000000ff8000000000000000',
    'get_hit_zero': '0f0000008b939230030000000000000000010100000000',
    'get_miss': '0a0000000cc861ea04000000000000000000',
    'put_ack': '09000000e1519eac050000000000000000',
    'delete_removed': '0a000000a728939906000000000000000001',
    'delete_absent': '0a0000000f73560107000000000000000000',
    'scan_empty': '0d000000ef95775508000000000000000000000000',
    'scan_int': '24000000a96cd32d0900000000000000000200000001010000000101000000020101000000fd020000000190',
    'scan_bytes': '240000001780f5a80a00000000000000000200000002010000006101000000010202000000626301000000ff',
    'ping': '09000000738a5c640b0000000000000000',
    'stats': '1500000046ef80ee0c0000000000000000080000007b2261223a20317d',
    'throttled': '14000000206252190d000000000000001009007468726f74746c6564',
    'overloaded': '15000000fe3281ab0e00000000000000110a006f7665726c6f61646564',
    'unknown_tenant': '1d0000006292f5bb0f00000000000000121200756e6b6e6f776e2074656e616e7420277827',
    'bad_request': '30000000c75426c0100000000000000013250074656e616e7420276127206f726465727320696e74206b6579732c20676f74206279746573',
    'server_error': '1b000000de97446bffffffffffffffff14100052756e74696d654572726f723a20c3a9',
    'error_empty_message': '0b0000004ba1d01f1100000000000000140000',
}

BAD_REQUESTS = [
    ('empty body', '', 'request body of 0 bytes too short'),
    ('short body', '000000000000000000', 'request body of 9 bytes too short'),
    ('unknown opcode', '0100000000000000090174', 'unknown opcode 0x09'),
    ('unknown opcode zero', '0100000000000000000174', 'unknown opcode 0x00'),
    ('unknown traced opcode', '0100000000000000890174', 'unknown opcode 0x09'),
    ('tenant overrun', '0100000000000000050a616263', 'tenant name overruns the body'),
    ('non-UTF-8 tenant', '01000000000000000502fffe', "tenant name is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ('truncated trace context', '010000000000000081017409000000000000000300000000000000', 'trace context truncated'),
    ('zero trace_id', '01000000000000008101740000000000000000030000000000000001010100000005', 'trace_id 0 is reserved'),
    ('bad trace flags', '01000000000000008101740900000000000000030000000000000002010100000005', 'trace flags 0x02 invalid'),
    ('missing key', '0100000000000000010174', 'truncated key header at offset 11'),
    ('truncated key header', '0100000000000000010174010100', 'truncated key header at offset 11'),
    ('key length overrun', '0100000000000000010174010900000005', 'key payload of 9 bytes overruns the blob'),
    ('key over the ceiling', '01000000000000000301740201000004', 'key declares 67108865 bytes (over the ceiling)'),
    ('empty int key', '01000000000000000101740100000000', 'int key with empty payload'),
    ('unknown key tag', '0100000000000000010174070100000005', 'unknown key tag 0x07'),
    ('missing value', '0100000000000000020174010100000005', 'truncated value header at offset 17'),
    ('value length overrun', '01000000000000000201740101000000050500000007', 'value payload of 5 bytes overruns the blob'),
    ('empty value', '010000000000000002017401010000000500000000', 'value declares 0 bytes'),
    ('value over the ceiling', '010000000000000002017401010000000501000004', 'value declares 67108865 bytes'),
    ('scan count missing', '01000000000000000401740101000000050100', 'scan count missing'),
    ('scan count zero', '010000000000000004017401010000000500000000', 'scan count 0 invalid'),
    ('scan count over the ceiling', '010000000000000004017401010000000501000100', 'scan count 65537 invalid'),
    ('trailing bytes after get', '010000000000000001017401010000000578797a', '3 trailing bytes after request'),
    ('trailing bytes after put', '010000000000000002017401010000000501000000077a', '1 trailing bytes after request'),
    ('trailing bytes after ping', '01000000000000000501747a', '1 trailing bytes after request'),
    ('trailing bytes after stats', '010000000000000006007a7a', '2 trailing bytes after request'),
]
BAD_RESPONSES = [
    ('short body', '0000000000000000', 1, 'response body of 8 bytes too short'),
    ('unknown status', '010000000000000001', 1, 'unknown status 0x01'),
    ('error length missing', '01000000000000001001', 1, 'error message length missing'),
    ('error length mismatch', '01000000000000001103006162', 1, 'error message length mismatch'),
    ('non-UTF-8 error message', '0100000000000000140100ff', 1, "error message is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ('payload on a put ack', '01000000000000000000', 2, 'unexpected payload on an empty-bodied response'),
    ('payload on a ping', '01000000000000000000', 5, 'unexpected payload on an empty-bodied response'),
    ('missing presence flag', '010000000000000000', 1, 'missing presence flag'),
    ('presence flag invalid', '01000000000000000002', 1, 'presence flag 2 invalid'),
    ('trailing bytes after delete', '0100000000000000000100', 3, 'trailing bytes after delete response'),
    ('trailing bytes after miss', '0100000000000000000000', 1, 'trailing bytes after miss response'),
    ('truncated value', '010000000000000000010100', 1, 'truncated value header at offset 10'),
    ('value overrun', '010000000000000000010200000007', 1, 'value payload of 2 bytes overruns the blob'),
    ('trailing bytes after hit', '01000000000000000001010000000700', 1, 'trailing bytes after get response'),
    ('scan count missing', '0100000000000000000100', 4, 'scan pair count missing'),
    ('scan count over the ceiling', '01000000000000000001000100', 4, 'scan response declares 65537 pairs'),
    ('scan pair truncated', '01000000000000000001000000010100000005', 4, 'truncated value header at offset 19'),
    ('scan bad key tag', '010000000000000000010000000301000000050100000007', 4, 'unknown key tag 0x03'),
    ('trailing bytes after scan', '0100000000000000000000000000', 4, 'trailing bytes after scan response'),
    ('payload length missing', '01000000000000000001', 6, 'payload length missing'),
    ('payload length mismatch', '0100000000000000000200000061', None, 'payload length mismatch'),
]


def _fields(response):
    """What a response carries beyond ``req_id`` and ``status``."""
    return (
        response.value,
        response.found,
        response.removed,
        response.pairs or [],
        response.message,
        response.payload,
    )


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_request_frame_bytes_are_pinned(name):
    frame = encode_frame(encode_request(REQUESTS[name]))
    assert frame.hex() == REQUEST_FRAMES[name]
    body, used = decode_frame(frame)
    assert used == len(frame)
    assert decode_request(body) == REQUESTS[name]


@pytest.mark.parametrize("name", sorted(RESPONSES))
def test_response_frame_bytes_are_pinned(name):
    response, op = RESPONSES[name]
    frame = encode_frame(encode_response(response, op))
    assert frame.hex() == RESPONSE_FRAMES[name]
    body, used = decode_frame(frame)
    assert used == len(frame)
    decoded = decode_response(body, op)
    assert (decoded.req_id, decoded.status) == (response.req_id, response.status)
    assert _fields(decoded) == _fields(response)


@pytest.mark.parametrize("name, body, message", BAD_REQUESTS, ids=[c[0] for c in BAD_REQUESTS])
def test_malformed_request_bodies_raise_the_pinned_message(name, body, message):
    with pytest.raises(ProtocolError) as raised:
        decode_request(bytes.fromhex(body))
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "name, body, op, message", BAD_RESPONSES, ids=[c[0] for c in BAD_RESPONSES]
)
def test_malformed_response_bodies_raise_the_pinned_message(name, body, op, message):
    with pytest.raises(ProtocolError) as raised:
        decode_response(bytes.fromhex(body), op)
    assert str(raised.value) == message


def test_malformed_frames_raise_the_pinned_message():
    oversized = struct.pack("<II", MAX_FRAME_BYTES + 1, 0)
    with pytest.raises(ProtocolError, match="^declared frame of 4194305 bytes exceeds ceiling$"):
        decode_frame(oversized)
    with pytest.raises(ProtocolError, match="^frame CRC mismatch$"):
        decode_frame(struct.pack("<II", 3, 0) + b"abc")
    with pytest.raises(ProtocolError, match="^frame body of 4194305 bytes exceeds 4194304$"):
        encode_frame(bytes(MAX_FRAME_BYTES + 1))
    assert decode_frame(oversized[:7]) is None  # a header still arriving
    assert decode_frame(struct.pack("<II", 3, 0) + b"ab") is None  # a body still arriving


ENCODE_ERRORS = [
    (lambda: encode_response(Response(1, 0x42)), ProtocolError, "unknown status 0x42"),
    (lambda: encode_request(Request(1, 0x42, "t")), ProtocolError, "unknown opcode 0x42"),
    (
        lambda: encode_request(Request(1, OP_PING, "x" * 256)),
        ProtocolError,
        "tenant name of 256 bytes exceeds 255",
    ),
    (
        lambda: encode_request(Request(1, OP_SCAN, "t", key=1, count=0)),
        ProtocolError,
        "scan count 0 invalid",
    ),
    (
        lambda: encode_response(Response(1, STATUS_SERVER_ERROR, message="m" * 65_536)),
        ProtocolError,
        "error message too long",
    ),
    (
        lambda: encode_response(
            Response(1, STATUS_OK, pairs=[(1, 1)] * (MAX_SCAN_COUNT + 1)), OP_SCAN
        ),
        ProtocolError,
        "scan response too large",
    ),
    (
        lambda: encode_response(Response(1, STATUS_OK, value=True, found=True), OP_GET),
        TypeError,
        "durable values are ints, got bool",
    ),
    (
        lambda: encode_request(Request(1, OP_GET, "t", key="k")),
        TypeError,
        "durable keys are int or bytes, got str",
    ),
]


@pytest.mark.parametrize("encode, error, message", ENCODE_ERRORS)
def test_unencodable_input_raises_the_pinned_message(encode, error, message):
    with pytest.raises(error) as raised:
        encode()
    assert type(raised.value) is error and str(raised.value) == message
