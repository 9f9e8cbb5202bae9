"""The wire path as plain calls: one ``asyncio.Protocol`` per connection.

Two kinds of test.  Most drive a ``_Connection`` directly with a
recording transport, so what one ``data_received`` does — frames split,
requests admitted, replies batched into one ``write`` — is asserted
without racing a socket.  The rest use real sockets for what only a
kernel can show: a peer that never reads, many connections at once.
"""

import asyncio
import inspect
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.net.__main__ as net_main
from repro.core.budget import TenantQuota
from repro.net import NetClient, NetServer, demo_directory, loadgen
from repro.net.coalescer import Coalescer
from repro.net.protocol import (
    OP_GET,
    OP_PUT,
    STATUS_OK,
    STATUS_SERVER_ERROR,
    Request,
    decode_frame,
    decode_response,
    encode_frame,
    encode_request,
)
from repro.net.server import _Connection
from repro.obs.runtime import Telemetry


def run(coro):
    return asyncio.run(coro)


def get_frames(count, tenant="alpha", first_id=1):
    """``count`` GET frames for keys 0, 2, 4, ... (all present: value key+1)."""
    return [
        encode_frame(encode_request(Request(first_id + n, OP_GET, tenant, key=2 * n)))
        for n in range(count)
    ]


def whole_frames(data):
    """``(bodies, bytes left over)`` of the complete frames at the head of ``data``."""
    view, offset, bodies = memoryview(data), 0, []
    while True:
        frame = decode_frame(view[offset:])
        if frame is None:
            return bodies, len(view) - offset
        bodies.append(frame[0])
        offset += frame[1]


def decode_replies(data, op=OP_GET):
    """Every response in ``data``, which must hold nothing but whole frames."""
    bodies, left_over = whole_frames(data)
    assert left_over == 0
    return [decode_response(body, op) for body in bodies]


class RecordingTransport(asyncio.Transport):
    """What a connection did to its transport, in order."""

    def __init__(self):
        super().__init__()
        self.writes = []
        self.reading = True
        self.closed = False

    def write(self, data):
        assert not self.closed, "write after close"
        self.writes.append(bytes(data))

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def close(self):
        self.closed = True

    abort = close

    def is_closing(self):
        return self.closed


def attach(server):
    """A connection of ``server`` on a recording transport (needs a running loop)."""
    connection, transport = _Connection(server), RecordingTransport()
    connection.connection_made(transport)
    return connection, transport


async def settle(passes=4):
    """Let the loop run its ready callbacks: the flush, then the reply write."""
    for _ in range(passes):
        await asyncio.sleep(0)


class TestFraming:
    def test_one_byte_at_a_time_answers_every_frame(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=50)
            try:
                connection, transport = attach(NetServer(directory))
                for byte in b"".join(get_frames(5)):
                    connection.data_received(bytes([byte]))
                    await asyncio.sleep(0)
                await settle()
                return decode_replies(b"".join(transport.writes))
            finally:
                directory.close()

        replies = run(scenario())
        assert [(r.req_id, r.value) for r in replies] == [
            (n + 1, 2 * n + 1) for n in range(5)
        ]

    def test_300_frames_in_one_chunk_leave_in_one_write(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=400)
            try:
                server = NetServer(directory, max_batch=128)
                connection, transport = attach(server)
                connection.data_received(b"".join(get_frames(300)))
                await settle()
                return transport.writes, server.coalescer.batches_flushed
            finally:
                directory.close()

        writes, batches = run(scenario())
        assert len(writes) == 1  # one write for 300 replies
        assert batches == 3  # 128 + 128 + 44, FIFO
        replies = decode_replies(writes[0])
        assert [(r.req_id, r.value) for r in replies] == [
            (n + 1, 2 * n + 1) for n in range(300)
        ]

    def test_300_frames_in_one_sendall_need_few_recvs(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=400)
            try:
                async with NetServer(directory) as server:
                    loop = asyncio.get_running_loop()
                    sock = socket.create_connection(("127.0.0.1", server.port))
                    sock.setblocking(False)
                    try:
                        await loop.sock_sendall(sock, b"".join(get_frames(300)))
                        received, recvs = b"", 0
                        while len(whole_frames(received)[0]) < 300:
                            received += await loop.sock_recv(sock, 1 << 20)
                            recvs += 1
                        return decode_replies(received), recvs
                    finally:
                        sock.close()
            finally:
                directory.close()

        replies, recvs = run(scenario())
        assert sorted(r.req_id for r in replies) == list(range(1, 301))
        assert all(r.value == 2 * (r.req_id - 1) + 1 for r in replies)
        assert recvs <= 10  # far fewer sends than replies

    def test_garbage_after_three_good_frames_closes_and_counts_once(self):
        telemetry = Telemetry()

        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=50)
            try:
                async with NetServer(directory) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(b"".join(get_frames(3)) + b"\xde\xad\xbe\xef" * 64)
                    assert await asyncio.wait_for(reader.read(), 5) is not None  # EOF
                    writer.close()
                    await writer.wait_closed()
                    # The poisoned connection is gone; the server is not.
                    async with await NetClient.connect("127.0.0.1", server.port) as client:
                        assert await client.get("alpha", 0) == 1
                    return server.protocol_errors, server.requests
            finally:
                directory.close()

        with telemetry:
            errors, requests = run(scenario())
        assert errors == 1
        assert requests == 4  # the three good frames were decoded and served
        assert telemetry.registry.snapshot()["counters"]["net.protocol_errors"] == 1

    def test_eof_mid_frame_is_a_protocol_error_eof_at_a_boundary_is_not(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=50)
            try:
                server = NetServer(directory)
                (frame,) = get_frames(1)
                whole, transport = attach(server)
                whole.data_received(frame)
                assert whole.eof_received() is False
                at_boundary = server.protocol_errors
                await settle()
                cut, cut_transport = attach(server)
                cut.data_received(frame[:-1])
                assert cut.eof_received() is False
                return at_boundary, server.protocol_errors, cut_transport.closed, transport
            finally:
                directory.close()

        at_boundary, after_cut, closed, transport = run(scenario())
        assert (at_boundary, after_cut) == (0, 1)
        assert closed
        assert len(decode_replies(b"".join(transport.writes))) == 1


class TestBackpressure:
    def test_pause_writing_pauses_reading(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=10)
            try:
                connection, transport = attach(NetServer(directory))
                connection.pause_writing()
                paused = transport.reading
                connection.resume_writing()
                return paused, transport.reading
            finally:
                directory.close()

        assert run(scenario()) == (False, True)

    def test_peer_that_never_reads_stops_being_read(self, monkeypatch):
        pauses, transports = [], []
        real_pause, real_made = _Connection.pause_writing, _Connection.connection_made

        def pause_spy(self):
            pauses.append(self)
            real_pause(self)

        def made_spy(self, transport):
            # A small, fixed kernel send buffer: left to autotune it grows
            # to megabytes and swallows the replies of ~100k GETs first.
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 8192
            )
            transports.append(transport)
            real_made(self, transport)

        monkeypatch.setattr(_Connection, "pause_writing", pause_spy)
        monkeypatch.setattr(_Connection, "connection_made", made_spy)

        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=2000)
            try:
                async with NetServer(directory) as server:
                    deaf = socket.socket()
                    deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    deaf.connect(("127.0.0.1", server.port))
                    deaf.setblocking(False)
                    chunk = b"".join(get_frames(1000))
                    try:
                        # 50k GETs offered (the kernel's buffers take them
                        # all); wait until the server stops making progress.
                        sent = stalled = taken = 0
                        while stalled < 40:
                            if sent < 50 * len(chunk):
                                try:
                                    sent += deaf.send(chunk[sent % len(chunk) :])
                                except BlockingIOError:
                                    pass
                            await asyncio.sleep(0.005)
                            stalled = stalled + 1 if server.requests == taken else 0
                            taken = server.requests
                        buffered = transports[0].get_write_buffer_size()
                        async with await NetClient.connect(
                            "127.0.0.1", server.port
                        ) as client:
                            served = await client.get("alpha", 10)
                        return taken, buffered, served
                    finally:
                        deaf.close()
            finally:
                directory.close()

        taken, buffered, served = run(scenario())
        assert pauses, "the server never paused reading a peer that does not read"
        assert 0 < taken < 50_000  # its requests stopped being taken
        assert buffered < 1024 * 1024  # replies owed stay bounded
        assert served == 11  # and other connections are still served


class TestAdmissionSlots:
    def test_dropped_connection_releases_every_slot_exactly_once(self):
        async def scenario():
            directory = demo_directory(
                ["q"], keys_per_tenant=100, quota=TenantQuota(max_inflight=64)
            )
            arbiter = directory.arbiter
            releases = []
            real_release = arbiter.release

            def release_spy(tenant):
                releases.append(tenant)
                real_release(tenant)

            arbiter.release = release_spy
            try:
                connection, transport = attach(NetServer(directory))
                connection.data_received(b"".join(get_frames(40, tenant="q")))
                queued = arbiter.inflight("q")
                connection.connection_lost(None)  # dropped with 40 entries queued
                await settle()
                return queued, arbiter.inflight("q"), len(releases), transport.writes
            finally:
                directory.close()

        queued, after, released, writes = run(scenario())
        assert queued == 40
        assert after == 0
        assert released == 40
        assert writes == []  # nothing is written to a connection that is gone

    def test_stop_fails_what_is_still_queued_and_frees_its_slots(self):
        async def scenario():
            directory = demo_directory(
                ["q"], keys_per_tenant=100, quota=TenantQuota(max_inflight=64)
            )
            try:
                server = NetServer(directory)
                connection, _ = attach(server)
                connection.data_received(b"".join(get_frames(10, tenant="q")))
                await server.stop()  # before the flush ran
                return directory.arbiter.inflight("q")
            finally:
                directory.close()

        assert run(scenario()) == 0


class SpyExecutor(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(max_workers=4)
        self.submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        return super().submit(fn, *args, **kwargs)


def track_concurrency(router, names):
    """Wrap ``router``'s methods; returns ``{name: most calls running at
    once}`` and ``{name: [thread id of each call]}``."""
    lock, active, peak = threading.Lock(), dict.fromkeys(names, 0), dict.fromkeys(names, 0)
    threads = {name: [] for name in names}

    def tracked(name, call):
        def run_tracked(*args):
            with lock:
                active[name] += 1
                peak[name] = max(peak[name], active[name])
                threads[name].append(threading.get_ident())
            try:
                return call(*args)
            finally:
                with lock:
                    active[name] -= 1

        return run_tracked

    for name in names:
        setattr(router, name, tracked(name, getattr(router, name)))
    return peak, threads


async def mixed_ops(client):
    await asyncio.gather(*(client.put("alpha", 10_000 + k, k) for k in range(100)))
    values = await asyncio.gather(*(client.get("alpha", 2 * k) for k in range(300)))
    assert values == [2 * k + 1 for k in range(300)]
    assert await client.scan("alpha", 0, 2) == [(0, 1), (2, 3)]
    assert await client.delete("alpha", 10_000) is True


class TestNoTaskNoHop:
    def test_no_task_per_request(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=2100)
            try:
                async with NetServer(directory) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    before = len(asyncio.all_tasks())
                    writer.write(b"".join(get_frames(1000)))
                    most, received = before, b""
                    while len(whole_frames(received)[0]) < 1000:
                        received += await asyncio.wait_for(reader.read(1 << 16), 10)
                        most = max(most, len(asyncio.all_tasks()))
                    writer.close()
                    await writer.wait_closed()
                    return before, most, len(decode_replies(received))
            finally:
                directory.close()

        before, most, replies = run(scenario())
        assert replies == 1000
        assert most <= before

    def test_no_executor_hop_on_a_wal_less_directory(self):
        spy = SpyExecutor()

        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=400, family="adaptive")
            try:
                server = NetServer(directory, max_batch=64)
                server.coalescer = Coalescer(max_batch=64, executor=spy)
                async with (
                    server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    await mixed_ops(client)
                    hops = spy.submits
                    await client.stats()  # introspection always leaves the loop
                    return hops, spy.submits
            finally:
                directory.close()
                spy.shutdown()

        assert run(scenario()) == (0, 1)

    def test_durable_directory_hops_with_one_flush_in_flight_per_kind(self, tmp_path):
        # Only a write to a durable router can wait on an fsync: its PUT
        # flushes and the DELETE hop, its GETs and the SCAN stay inline.
        spy = SpyExecutor()

        async def scenario():
            directory = demo_directory(
                ["alpha"], keys_per_tenant=400, family="adaptive", durability_root=tmp_path
            )
            peak, threads = track_concurrency(
                directory.router_for("alpha"), ["get_many", "put_many"]
            )
            try:
                server = NetServer(directory, max_batch=16)
                server.coalescer = Coalescer(max_batch=16, executor=spy)
                async with (
                    server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    await mixed_ops(client)
                    return spy.submits, peak, threads, server.coalescer.batches_flushed
            finally:
                directory.close()
                spy.shutdown()

        submits, peak, threads, batches = run(scenario())
        put_flushes = len(threads["put_many"])
        assert submits == put_flushes + 1  # every PUT flush and the delete
        assert put_flushes >= 7 and batches >= 7 + 19  # at most 16 per chunk
        assert set(threads["get_many"]) == {threading.get_ident()}  # the loop's
        assert threading.get_ident() not in threads["put_many"]
        assert peak == {"get_many": 1, "put_many": 1}


class TestFailedFlush:
    def test_a_raising_flush_fails_its_own_batch_and_the_queue_keeps_serving(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=50)
            router = directory.router_for("alpha")
            real_get_many, calls = router.get_many, []

            def flaky(keys):
                calls.append(len(keys))
                if len(calls) == 1:
                    raise RuntimeError("index on fire")
                return real_get_many(keys)

            router.get_many = flaky
            try:
                connection, transport = attach(NetServer(directory))
                connection.data_received(b"".join(get_frames(5)))
                await settle()
                connection.data_received(b"".join(get_frames(5, first_id=6)))
                await settle()
                return calls, [decode_replies(w) for w in transport.writes]
            finally:
                directory.close()

        calls, (failed, served) = run(scenario())
        assert calls == [5, 5]
        assert [r.status for r in failed] == [STATUS_SERVER_ERROR] * 5
        assert all("index on fire" in r.message for r in failed)
        assert [(r.status, r.value) for r in served] == [
            (STATUS_OK, 2 * n + 1) for n in range(5)
        ]


class TestTheKnobIsGone:
    def test_stale_callers_fail_loudly(self):
        directory = demo_directory(["alpha"], keys_per_tenant=10)
        try:
            with pytest.raises(TypeError):
                NetServer(directory, max_delay=0.001)
            with pytest.raises(TypeError):
                Coalescer(max_batch=8, max_delay=0.001)
        finally:
            directory.close()
        assert str(inspect.signature(Coalescer)) == (
            "(max_batch: 'int' = 128, "
            "executor: 'Optional[ThreadPoolExecutor]' = None) -> 'None'"
        )

    @pytest.mark.parametrize("parser", [net_main._build_parser, loadgen._build_parser])
    def test_max_delay_flag_is_rejected(self, parser, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parser().parse_args(["--max-delay", "0.001"])
        assert exit_info.value.code == 2
        assert "--max-delay" in capsys.readouterr().err

    def test_max_delay_survives_only_as_a_read_only_zero(self):
        coalescer = Coalescer(max_batch=8)
        assert coalescer.max_delay == 0.0
        with pytest.raises(AttributeError):
            coalescer.max_delay = 0.001
        assert coalescer.enabled and not Coalescer(max_batch=1).enabled


class TestWritePathUnchanged:
    def test_puts_in_one_chunk_land_and_ack_in_order(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=10)
            try:
                connection, transport = attach(NetServer(directory))
                frames = [
                    encode_frame(
                        encode_request(Request(n + 1, OP_PUT, "alpha", key=500 + n, value=n))
                    )
                    for n in range(20)
                ]
                connection.data_received(b"".join(frames))
                await settle()
                router = directory.router_for("alpha")
                acks = decode_replies(b"".join(transport.writes), OP_PUT)
                return acks, router.get_many([500 + n for n in range(20)])
            finally:
                directory.close()

        acks, stored = run(scenario())
        assert [(a.req_id, a.status) for a in acks] == [(n + 1, STATUS_OK) for n in range(20)]
        assert stored == list(range(20))
