"""The one request path, read event by read event.

A ``_Connection`` on a recording transport is handed one chunk of
frames; the loop's ``call_soon`` is captured, so the coalescer's flush
and the reply write run right here, in the order the loop would run
them.  Two kinds of test: Python-call budgets for a chunk of untraced
GETs and PUTs, and one chunk that mixes every way a request can end,
whose replies, their order and the server's counters are pinned.
"""

import asyncio
from collections import Counter

from repro.core.budget import TenantQuota
from repro.net import NetServer, demo_directory
from repro.net.protocol import (
    OP_GET,
    OP_PING,
    OP_PUT,
    OP_SCAN,
    STATUS_BAD_REQUEST,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_UNKNOWN_TENANT,
    Request,
    decode_frame,
    decode_response,
    encode_frame,
    encode_request,
)
from repro.obs.runtime import Telemetry
from tests.helpers import count_calls
from tests.net.test_connection import attach

CHUNK = 128  # one coalesced batch: the server's default ``max_batch``


def frames(requests):
    return b"".join(encode_frame(encode_request(request)) for request in requests)


def replies(writes, ops):
    """Every reply in ``writes``, decoded with the op of its request id."""
    data, offset, decoded = memoryview(b"".join(writes)), 0, []
    while offset < len(data):
        body, used = decode_frame(data[offset:])
        offset += used
        req_id = int.from_bytes(body[:8], "little")
        decoded.append(decode_response(body, ops[req_id]))
    return decoded


def captured_loop(loop):
    """Route ``loop.call_soon`` into a list; returns a ``drain()`` that
    runs what was scheduled, in order, until nothing is left."""
    pending = []
    loop.call_soon = lambda callback, *args, context=None: pending.append((callback, args))

    def drain():
        while pending:
            callback, args = pending.pop(0)
            callback(*args)

    return drain


def calls_per_request(chunk, directory):
    """Python calls per request for ``chunk`` of ``CHUNK`` frames, from
    ``data_received`` through the flush to the queued write."""

    async def scenario():
        loop = asyncio.get_running_loop()
        connection, transport = attach(NetServer(directory))
        drain = captured_loop(loop)

        def one_event():
            connection.data_received(chunk)
            drain()
            return transport.writes.pop()

        written, calls = count_calls(one_event)
        del loop.call_soon
        return written, calls

    written, calls = asyncio.run(scenario())
    return len(calls) / CHUNK, written, calls


def test_untraced_get_call_budget():
    """A chunk of 128 untraced GETs over 4 OLC shards makes at most 14
    Python-level calls per GET (11.2 on 3.11): per request a frame split,
    a body decode, the request path, an admission and its release, the
    coalescer's enqueue, one completion, the reply's two encoders and
    the index's two lookups; the flush and the write are shared by the
    chunk.  Before the codec's checks went inline and the per-request
    ``reply``/``complete`` closures went, the same chunk made 40.2 per
    GET (about 40.5, counted another way): eleven ``_require`` frames, a ``decode_key``, an ``encode_value`` and its
    ``_int_to_bytes``, three ``loop.time`` reads, a registry and a
    tracer read, two named-tuple ``__new__`` frames, the tenant lookups
    and the closures' own frames."""
    directory = demo_directory(["alpha"], keys_per_tenant=2 * CHUNK, num_shards=4)
    try:
        chunk = frames(
            Request(n + 1, OP_GET, "alpha", key=2 * n) for n in range(CHUNK)
        )
        per_get, written, calls = calls_per_request(chunk, directory)
    finally:
        directory.close()
    answers = replies([written], dict.fromkeys(range(1, CHUNK + 1), OP_GET))
    assert [(a.req_id, a.value) for a in answers] == [
        (n + 1, 2 * n + 1) for n in range(CHUNK)
    ]
    assert per_get <= 14, Counter(calls).most_common()


def test_untraced_wal_less_put_call_budget():
    """A chunk of 128 untraced PUTs (overwrites) to a tenant with no WAL
    makes at most 18 Python-level calls per PUT (14.4 on 3.11): the GET's
    path with a value decoded and an empty ack, plus the OLC leaf write's
    lock upgrade, insert, unlock and two size reads.  With the closures
    and the ``_require`` frames the same chunk made 45.4 per PUT."""
    directory = demo_directory(["alpha"], keys_per_tenant=2 * CHUNK, num_shards=4)
    try:
        chunk = frames(
            Request(n + 1, OP_PUT, "alpha", key=2 * n, value=n) for n in range(CHUNK)
        )
        per_put, written, calls = calls_per_request(chunk, directory)
        stored = directory.router_for("alpha").get_many([2 * n for n in range(CHUNK)])
    finally:
        directory.close()
    answers = replies([written], dict.fromkeys(range(1, CHUNK + 1), OP_PUT))
    assert [(a.req_id, a.status) for a in answers] == [
        (n + 1, STATUS_OK) for n in range(CHUNK)
    ]
    assert stored == list(range(CHUNK))
    assert per_put <= 18, Counter(calls).most_common()


#: One read event that ends requests every way there is, with the reply
#: each gets.  The inline SCAN, the refusals, the shed and the PING answer
#: as they are read; the GET batch answers when the loop flushes it, which
#: it does before the reply write it was scheduled ahead of; the PUT batch
#: was scheduled after that write, so its ack leaves in the next one.
MIXED = [
    (Request(1, OP_GET, "alpha", key=2), (STATUS_OK, 3)),  # hit
    (Request(2, OP_GET, "alpha", key=3), (STATUS_OK, None)),  # miss
    (Request(3, OP_SCAN, "alpha", key=4, count=2), (STATUS_OK, [(4, 5), (6, 7)])),
    (Request(4, OP_PUT, "alpha", key=5, value=50), (STATUS_OK, None)),
    (Request(5, OP_GET, "alpha", key=b"k"), (STATUS_BAD_REQUEST, None)),  # wrong type
    (Request(6, OP_GET, "nobody", key=2), (STATUS_UNKNOWN_TENANT, None)),
    (Request(7, OP_GET, "alpha", key=6), (STATUS_OVERLOADED, None)),  # 3 in flight
    (Request(8, OP_PING, ""), (STATUS_OK, None)),
]
MIXED_WRITES = [[3, 5, 6, 7, 8, 1, 2], [4]]


def test_one_read_event_answers_every_request_once_in_order():
    telemetry = Telemetry()

    async def scenario():
        directory = demo_directory(
            ["alpha"], keys_per_tenant=10, quota=TenantQuota(max_inflight=3)
        )
        try:
            server = NetServer(directory)
            connection, transport = attach(server)
            connection.data_received(frames(request for request, _ in MIXED))
            for _ in range(4):
                await asyncio.sleep(0)
            counts = (server.requests, server.responses, server.sheds)
            stored = directory.router_for("alpha").get_many([5])
            return transport.writes, counts, stored, directory.arbiter.inflight("alpha")
        finally:
            directory.close()

    with telemetry:
        writes, counts, stored, inflight = asyncio.run(scenario())
    ops = {request.req_id: request.op for request, _ in MIXED}
    assert [[a.req_id for a in replies([w], ops)] for w in writes] == MIXED_WRITES
    answers = replies(writes, ops)
    expected = {request.req_id: outcome for request, outcome in MIXED}
    for answer in answers:
        status, result = expected[answer.req_id]
        assert answer.status == status, answer
        if ops[answer.req_id] == OP_SCAN:
            assert answer.pairs == result
        elif ops[answer.req_id] == OP_GET and status == STATUS_OK:
            assert (answer.found, answer.value) == (result is not None, result)
    # Refusals and sheds are answered but not counted as responses.
    assert counts == (8, 5, 1)
    assert stored == [50] and inflight == 0
    snapshot = telemetry.registry.snapshot()
    assert snapshot["counters"]["net.requests"] == 8
    assert snapshot["counters"]["net.responses"] == 5
    assert snapshot["counters"]["net.shed.overloaded"] == 1
    assert snapshot["counters"]["net.unknown_tenant"] == 1
    assert snapshot["histograms"]["net.request_seconds"]["count"] == 5
    assert snapshot["histograms"]["net.service_seconds"]["count"] == 4  # not PING
