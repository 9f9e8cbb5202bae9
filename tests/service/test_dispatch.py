"""Where the router runs per-shard work: the caller's thread for reads
and non-durable writes, the ``repro-service`` pool only for the WAL
waits of a durable ``put_many``."""

import threading

import pytest

from repro.durability import DurabilityManager
from repro.obs import Telemetry
from repro.service import ShardRouter

NUM_SHARDS = 4
PAIRS = [(key, key * 10) for key in range(400)]
KEYS = [key for key, _ in PAIRS]


def build_router(tmp_path=None, partitioning="hash"):
    """A 4-shard OLC router with the default ``max_workers``; durable
    (one WAL per shard) when ``tmp_path`` is given."""
    durability = None
    if tmp_path is not None:
        durability = DurabilityManager(tmp_path / "store", sync="none")
    return ShardRouter.build(
        PAIRS,
        family="olc",
        num_shards=NUM_SHARDS,
        partitioning=partitioning,
        durability=durability,
    )


def service_threads():
    """Live router pool threads (a set, so a test can subtract the ones
    another test's unclosed router left behind)."""
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-service")
    }


@pytest.fixture(params=("plain", "durable"))
def router(request, tmp_path):
    with build_router(tmp_path if request.param == "durable" else None) as built:
        yield built


class TestReadsStayOnTheCallersThread:
    def test_get_many_and_scan_start_no_pool_thread(self, router):
        before = service_threads()
        assert router.get_many(KEYS) == [value for _, value in PAIRS]
        assert router.scan(KEYS[10], 100) == PAIRS[10:110]
        assert not service_threads() - before
        assert router.queue_depth == 0

    def test_non_durable_put_many_starts_no_pool_thread(self):
        before = service_threads()
        with build_router() as plain:
            plain.put_many([(key, 1) for key in KEYS])
            assert not service_threads() - before
            assert plain.get_many(KEYS[:50]) == [1] * 50


class TestDurableWritesOverlapOnThePool:
    def test_two_shards_append_at_once(self, tmp_path):
        """Each stubbed append waits for another shard's: a serial fan-out
        would break the barrier and fail the ``put_many``."""
        barrier = threading.Barrier(2, timeout=10)
        depths = []
        before = service_threads()
        with build_router(tmp_path, partitioning="range") as durable:
            boundary = durable.table.partitioner.boundaries[0]
            batch = [(boundary - 1, 7), (boundary, 8)]
            assert len({id(durable.shard_for(key)) for key, _ in batch}) == 2
            for shard in durable.table.shards:
                log = shard.replicas[0].durable_log
                original = log.append_put_many

                def waiting_append(pairs, original=original):
                    depths.append(durable.queue_depth)
                    barrier.wait()
                    return original(pairs)

                log.append_put_many = waiting_append
            durable.put_many(batch)
            assert not barrier.broken
            assert depths == [2, 2]
            assert durable.queue_depth == 0
            assert durable.get_many([key for key, _ in batch]) == [7, 8]
            assert len(service_threads() - before) >= 2

    def test_shard_failure_reaches_the_caller(self, tmp_path):
        with build_router(tmp_path) as durable:

            def failing_append(pairs):
                raise OSError("disk gone")

            durable.table.shards[1].replicas[0].durable_log.append_put_many = failing_append
            with pytest.raises(OSError, match="disk gone"):
                durable.put_many([(key, 1) for key in KEYS])
            assert durable.queue_depth == 0


class TestSpansNestUnderTheRoute:
    """``service.shard_op`` is a child of ``service.route`` whether the
    shard ran inline or on a pool thread, with the attributes the trace
    consumers (``repro.obs.stitch``, ``docs/observability.md``) read."""

    @staticmethod
    def traced(router, call):
        with Telemetry.with_memory_trace() as telemetry:
            tracer = telemetry.tracer
            request = tracer.start_remote("net.server.request", trace_id=77)
            with tracer.adopt(request):
                call(router)
            tracer.finish(request)
            return request, list(tracer.sink.records)

    @staticmethod
    def by_name(records, name):
        return [record for record in records if record["name"] == name]

    def check_nesting(self, request, records, op, count):
        (route,) = self.by_name(records, "service.route")
        shard_ops = self.by_name(records, "service.shard_op")
        assert route["parent_id"] == request.span_id
        assert set(route["attributes"]) == {"op", "count", "fanout", "elapsed_s"}
        assert route["attributes"]["op"] == op
        assert route["attributes"]["count"] == count
        assert route["attributes"]["fanout"] == len(shard_ops) == NUM_SHARDS
        for shard_op in shard_ops:
            assert shard_op["parent_id"] == route["span_id"]
            assert set(shard_op["attributes"]) == {
                "op",
                "shard_id",
                "count",
                "elapsed_s",
            }
            assert shard_op["attributes"]["op"] == op
            assert shard_op["attributes"]["elapsed_s"] >= 0.0
        assert {shard_op["attributes"]["shard_id"] for shard_op in shard_ops} == set(
            range(NUM_SHARDS)
        )
        assert all(record["trace_id"] == 77 for record in records)
        return shard_ops

    def test_inline_read_path(self, router):
        before = service_threads()
        request, records = self.traced(router, lambda r: r.get_many(KEYS))
        shard_ops = self.check_nesting(request, records, "get_many", len(KEYS))
        assert sum(op["attributes"]["count"] for op in shard_ops) == len(KEYS)

        request, records = self.traced(router, lambda r: r.scan(0, 25))
        self.check_nesting(request, records, "scan", 25)
        assert not service_threads() - before

    def test_pooled_durable_write_path(self, tmp_path):
        batch = [(key, 3) for key in KEYS]
        before = service_threads()
        with build_router(tmp_path) as durable:
            request, records = self.traced(durable, lambda r: r.put_many(batch))
            assert service_threads() - before
        shard_ops = self.check_nesting(request, records, "put_many", len(batch))
        appends = self.by_name(records, "durability.wal.append")
        assert {append["parent_id"] for append in appends} == {
            shard_op["span_id"] for shard_op in shard_ops
        }
        for append in appends:
            assert set(append["attributes"]) == {"shard_id", "records", "elapsed_s"}

    def test_untraced_calls_emit_no_service_spans(self, router):
        with Telemetry.with_memory_trace() as telemetry:
            router.get_many(KEYS)
            router.scan(0, 10)
            assert telemetry.tracer.sink.records == []
