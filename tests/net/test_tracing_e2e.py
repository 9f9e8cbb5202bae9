"""End-to-end distributed tracing through the wire.

Client and server share one process (and therefore one installed
tracer), which is exactly the hard case for propagation: only the wire
context — not ambient state — may link the two sides.  The tests
install an in-memory sink, drive real requests through a real TCP
server, and assert on the emitted span graph and the stitched tree.
"""

import asyncio

from repro.net import NetClient, NetServer, demo_directory
from repro.net import server as server_module
from repro.net.protocol import (
    OP_GET,
    OP_TRACE_FLAG,
    Request,
    decode_request,
    encode_request,
)
from repro.obs import InMemoryTraceSink, Telemetry, Tracer, validate_trace
from repro.obs.distributed import TraceContext
from repro.obs.slo import SloMonitor, ratio_objective
from repro.obs.stitch import stitch


def run(coro):
    return asyncio.run(coro)


async def traced_workload(directory_kwargs=None, client_kwargs=None, ops=None):
    """Run a workload against a live server; returns the emitted records."""
    sink = InMemoryTraceSink()
    with Telemetry(tracer=Tracer(sink, op_sample_every=1)):
        directory = demo_directory(
            ["acme"], 500, **(directory_kwargs or {"family": "adaptive"})
        )
        server = NetServer(directory, port=0)
        await server.start()
        try:
            client = await NetClient.connect(
                "127.0.0.1", server.port, **(client_kwargs or {"trace_sample_every": 1})
            )
            try:
                if ops is None:
                    assert await client.get("acme", 2) == 3
                    await client.put("acme", 9001, 1)
                else:
                    await ops(client)
            finally:
                await client.close()
        finally:
            await server.stop()
            directory.close()
    return sink.records


class TestWireContext:
    def test_traced_op_byte_sets_the_flag_and_round_trips(self):
        request = Request(
            req_id=1,
            op=OP_GET,
            tenant="acme",
            key=2,
            trace=TraceContext(trace_id=7, parent_span_id=3, sampled=True),
        )
        body = encode_request(request)
        assert body[8] & OP_TRACE_FLAG  # op byte follows the u64 req_id
        decoded = decode_request(body)
        assert decoded.trace == request.trace
        assert decoded.op == OP_GET
        assert decoded.key == 2

    def test_untraced_requests_pay_no_context_bytes(self):
        bare = encode_request(Request(req_id=1, op=OP_GET, tenant="acme", key=2))
        traced = encode_request(
            Request(
                req_id=1,
                op=OP_GET,
                tenant="acme",
                key=2,
                trace=TraceContext(trace_id=7, parent_span_id=3, sampled=True),
            )
        )
        assert len(traced) - len(bare) == 17  # u64 + u64 + flags byte


class TestPropagation:
    def test_server_span_links_to_client_span_across_the_wire(self):
        records = run(traced_workload())
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        client_spans = by_name["net.client.request"]
        server_spans = by_name["net.server.request"]
        assert len(client_spans) == len(server_spans) == 2
        client_ids = {span["span_id"] for span in client_spans}
        for span in server_spans:
            assert span["attributes"]["remote_parent_id"] in client_ids
            assert span["parent_id"] is None  # local root; link is remote
        trace_ids = {span["trace_id"] for span in client_spans}
        assert trace_ids == {span["trace_id"] for span in server_spans}
        assert len(trace_ids) == 2  # each request is its own trace

    def test_full_chain_reaches_index_and_wal(self, tmp_path):
        records = run(
            traced_workload(
                directory_kwargs={
                    "family": "adaptive",
                    "durability_root": tmp_path / "wal",
                }
            )
        )
        validate_trace(records)
        traces = stitch(records)
        assert len(traces) == 2
        assert any(
            trace.has_chain(
                ["net.client.request", "net.server.request", "service.shard_op", "lookup"]
            )
            for trace in traces
        )
        assert any(
            trace.has_chain(["net.client.request", "durability.wal.append"])
            for trace in traces
        )

    def test_sampling_every_n_traces_one_in_n(self):
        async def ops(client):
            for key in range(0, 20, 2):
                await client.get("acme", key)

        records = run(
            traced_workload(client_kwargs={"trace_sample_every": 5}, ops=ops)
        )
        client_spans = [r for r in records if r["name"] == "net.client.request"]
        assert len(client_spans) == 2  # 10 requests, every 5th sampled

    def test_untraced_client_emits_no_net_spans(self):
        records = run(traced_workload(client_kwargs={"trace_sample_every": 0}))
        assert not [r for r in records if r["name"].startswith("net.")]


class TestStatsConsole:
    def test_stats_snapshot_is_structured_and_complete(self, monkeypatch):
        monkeypatch.setattr(server_module, "SLO_INTERVAL_S", 0.01)

        async def scenario():
            directory = demo_directory(["acme", "zeta"], 200, family="adaptive")
            objectives = [
                ratio_objective(
                    "shed_rate", bad=("net.shed.throttled",), total="net.requests", target=0.05
                )
            ]
            server = NetServer(directory, port=0, slo=SloMonitor(objectives))
            await server.start()
            try:
                client = await NetClient.connect("127.0.0.1", server.port)
                try:
                    await client.get("acme", 2)
                    await asyncio.sleep(0.05)  # let the SLO loop tick
                    return await client.stats()
                finally:
                    await client.close()
            finally:
                await server.stop()
                directory.close()

        with Telemetry():
            stats = run(scenario())
        for key in ("server", "coalescer", "tenants", "arbiter", "shards", "slo"):
            assert key in stats, key
        assert stats["server"]["requests"] >= 2
        shard = stats["shards"]["acme"][0]
        assert "encoding_census" in shard
        assert "wal_lag" in shard
        assert stats["slo"]["objectives"]["shed_rate"]["state"] == "ok"
