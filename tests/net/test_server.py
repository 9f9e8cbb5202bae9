"""End-to-end server tests: ops, coalescing, backpressure, garbage.

No pytest-asyncio in the container, so every test wraps its coroutine
in ``asyncio.run`` — which also guarantees each test gets a fresh
event loop and a clean shutdown path.
"""

import asyncio

import pytest

from repro.core.budget import TenantQuota
from repro.net import (
    BackpressureError,
    RequestError,
    NetClient,
    NetServer,
    OP_GET,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_THROTTLED,
    STATUS_UNKNOWN_TENANT,
    demo_directory,
)
from repro.net.protocol import (
    Request,
    decode_response,
    encode_frame,
    encode_request,
    read_frame,
)
from repro.net.tenancy import TenantDirectory, TenantSpec
from repro.obs.runtime import Telemetry


def run(coro):
    return asyncio.run(coro)


class TestOps:
    def test_get_put_delete_scan(self):
        async def scenario():
            directory = demo_directory(["alpha", "beta"], keys_per_tenant=500)
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    await client.ping()
                    assert await client.get("alpha", 10) == 11
                    assert await client.get("alpha", 11) is None
                    await client.put("alpha", 11, 99)
                    assert await client.get("alpha", 11) == 99
                    assert await client.delete("alpha", 11) is True
                    assert await client.delete("alpha", 11) is False
                    assert await client.scan("alpha", 0, 3) == [(0, 1), (2, 3), (4, 5)]
                    stats = await client.stats()
                    assert set(stats["tenants"]) == {"alpha", "beta"}
            finally:
                directory.close()

        run(scenario())

    def test_tenant_namespaces_are_isolated(self):
        async def scenario():
            directory = demo_directory(["alpha", "beta"], keys_per_tenant=10)
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    await client.put("alpha", 1001, 7)
                    assert await client.get("alpha", 1001) == 7
                    assert await client.get("beta", 1001) is None
            finally:
                directory.close()

        run(scenario())

    def test_unknown_tenant_is_a_response_not_a_disconnect(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=10)
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    response = await client.request(OP_GET, "ghost", key=1)
                    assert response.status == STATUS_UNKNOWN_TENANT
                    # Same connection still serves real tenants.
                    assert await client.get("alpha", 0) == 1
            finally:
                directory.close()

        run(scenario())

    def test_bytes_keys_and_clean_server_errors(self):
        async def scenario():
            directory = TenantDirectory(
                [
                    TenantSpec(
                        name="alpha",
                        num_shards=1,
                        family="hybridtrie",
                        pairs=[(b"aa", 1), (b"bb", 2), (b"cc", 3)],
                    )
                ]
            )
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    assert await client.get("alpha", b"bb") == 2
                    assert await client.get("alpha", b"zz") is None
                    assert await client.scan("alpha", b"aa", 2) == [(b"aa", 1), (b"bb", 2)]
                    # A write to a read-only family is a SERVER_ERROR
                    # *response*, not a disconnect...
                    with pytest.raises(RequestError):
                        await client.put("alpha", b"dd", 4)
                    # ...and the connection keeps serving.
                    assert await client.get("alpha", b"cc") == 3
            finally:
                directory.close()

        run(scenario())


class TestCoalescing:
    def test_concurrent_gets_batch(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=2000)
            try:
                async with (
                    NetServer(directory, max_batch=64) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    values = await asyncio.gather(
                        *(client.get("alpha", k * 2) for k in range(300))
                    )
                    assert values == [k * 2 + 1 for k in range(300)]
                    return server.coalescer.batches_flushed, server.coalescer.requests_coalesced
            finally:
                directory.close()

        batches, requests = run(scenario())
        assert requests >= 300
        # 300 concurrent requests must land in far fewer dispatches.
        assert batches < requests / 2

    def test_concurrent_puts_batch_and_land(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=10)
            try:
                async with (
                    NetServer(directory, max_batch=32) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    await asyncio.gather(
                        *(client.put("alpha", 10_000 + k, k) for k in range(100))
                    )
                    values = await asyncio.gather(
                        *(client.get("alpha", 10_000 + k) for k in range(100))
                    )
                    assert values == list(range(100))
                    return server.coalescer.batches_flushed
            finally:
                directory.close()

        batches = run(scenario())
        assert batches < 200  # gets + puts in far fewer than 200 dispatches

    def test_max_batch_one_means_per_request_dispatch(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=100)
            try:
                async with NetServer(directory, max_batch=1) as server:
                    assert not server.coalescer.enabled
                    async with await NetClient.connect("127.0.0.1", server.port) as client:
                        await asyncio.gather(*(client.get("alpha", 2 * k) for k in range(20)))
                        return server.coalescer.batches_flushed
            finally:
                directory.close()

        assert run(scenario()) == 20

    def test_coalescer_metrics_are_recorded(self):
        telemetry = Telemetry()

        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=100)
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    await asyncio.gather(*(client.get("alpha", 2 * k) for k in range(30)))
            finally:
                directory.close()

        with telemetry:
            run(scenario())
        snapshot = telemetry.registry.snapshot()
        assert snapshot["counters"]["net.coalesce.requests"] >= 30
        assert snapshot["counters"]["net.requests"] >= 30
        assert "net.request_seconds" in snapshot["histograms"]


class TestBackpressure:
    def test_throttle_is_a_response(self):
        async def scenario():
            directory = demo_directory(
                ["q"],
                keys_per_tenant=50,
                quota=TenantQuota(ops_per_sec=5.0, burst_ops=5.0),
            )
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    statuses = []
                    for _ in range(40):
                        response = await client.request(OP_GET, "q", key=2)
                        statuses.append(response.status)
                    return statuses
            finally:
                directory.close()

        statuses = run(scenario())
        assert STATUS_OK in statuses
        assert STATUS_THROTTLED in statuses

    def test_inflight_bound_sheds_overloaded(self):
        async def scenario():
            directory = demo_directory(
                ["q"], keys_per_tenant=50, quota=TenantQuota(max_inflight=2)
            )
            try:
                async with NetServer(directory, max_batch=256) as server:
                    # One pre-joined chunk: all 30 GETs are admitted in one
                    # loop pass, before any of them can complete.
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(
                        b"".join(
                            encode_frame(
                                encode_request(Request(n + 1, OP_GET, "q", key=2))
                            )
                            for n in range(30)
                        )
                    )
                    statuses = []
                    for _ in range(30):
                        statuses.append(
                            decode_response(await read_frame(reader), OP_GET).status
                        )
                    writer.close()
                    await writer.wait_closed()
                    return statuses
            finally:
                directory.close()

        statuses = run(scenario())
        assert statuses.count(STATUS_OK) == 2
        assert statuses.count(STATUS_OVERLOADED) == 28

    def test_typed_client_raises_backpressure_error(self):
        async def scenario():
            directory = demo_directory(
                ["q"], keys_per_tenant=50, quota=TenantQuota(ops_per_sec=1.0, burst_ops=1.0)
            )
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    with pytest.raises(BackpressureError):
                        for _ in range(10):
                            await client.get("q", 2)
            finally:
                directory.close()

        run(scenario())

    def test_admission_off_never_sheds(self):
        async def scenario():
            directory = demo_directory(
                ["q"], keys_per_tenant=50, quota=TenantQuota(ops_per_sec=1.0, burst_ops=1.0)
            )
            try:
                async with (
                    NetServer(directory, admission=False) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    for _ in range(20):
                        assert (await client.request(OP_GET, "q", key=2)).status == STATUS_OK
            finally:
                directory.close()

        run(scenario())


class TestGarbage:
    def test_garbage_closes_connection_but_not_server(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=10)
            try:
                async with NetServer(directory) as server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                    writer.write(b"\xde\xad\xbe\xef" * 64)
                    await writer.drain()
                    # Server must close the poisoned connection...
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()
                    assert server.protocol_errors >= 1
                    # ...and keep serving fresh clients.
                    async with await NetClient.connect("127.0.0.1", server.port) as client:
                        assert await client.get("alpha", 0) == 1
            finally:
                directory.close()

        run(scenario())

    def test_mid_frame_disconnect_is_counted_not_fatal(self):
        async def scenario():
            directory = demo_directory(["alpha"], keys_per_tenant=10)
            try:
                async with NetServer(directory) as server:
                    _, writer = await asyncio.open_connection("127.0.0.1", server.port)
                    writer.write(b"\x40")  # one byte of a frame header
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()
                    await asyncio.sleep(0.05)
                    assert server.protocol_errors >= 1
                    async with await NetClient.connect("127.0.0.1", server.port) as client:
                        assert await client.get("alpha", 0) == 1
            finally:
                directory.close()

        run(scenario())
