"""Where the router runs per-shard work: every call, durable or not,
runs each shard's WAL append and index apply on the caller's thread."""

import sys
import threading
from collections import Counter

import pytest

from repro.durability import DurabilityManager
from repro.obs import Telemetry
from repro.service import ShardRouter
from tests.helpers import count_calls

NUM_SHARDS = 4
PAIRS = [(key, key * 10) for key in range(400)]
KEYS = [key for key, _ in PAIRS]


def build_router(tmp_path=None, partitioning="hash"):
    """A 4-shard OLC router; durable (one WAL per shard) when
    ``tmp_path`` is given."""
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


@pytest.fixture(params=("plain", "durable"))
def router(request, tmp_path):
    with build_router(tmp_path if request.param == "durable" else None) as built:
        yield built


class _RecordingIndex:
    """An index whose data methods note ``(shard, thread)`` per call."""

    METHODS = frozenset({"lookup", "scan", "insert", "insert_many", "delete"})

    def __init__(self, index, shard_id, records):
        self._index = index
        self._shard_id = shard_id
        self._records = records

    def __getattr__(self, name):
        attribute = getattr(self._index, name)
        if name not in self.METHODS:
            return attribute

        def recorded(*args, **kwargs):
            self._records.append((self._shard_id, threading.get_ident()))
            return attribute(*args, **kwargs)

        return recorded


def record_shard_work(router):
    """Stub every shard's WAL appends and index applies to record the
    thread they run on; returns the (wal, index) record lists."""
    wal, applied = [], []
    for shard_id, shard in enumerate(router.table.shards):
        replica = shard.replicas[0]
        replica.index = _RecordingIndex(replica.index, shard_id, applied)
        log = replica.durable_log
        if log is None:
            continue
        for name in ("append_put_many", "append_delete"):

            def append(*args, original=getattr(log, name), shard_id=shard_id):
                wal.append((shard_id, threading.get_ident()))
                return original(*args)

            setattr(log, name, append)
    return wal, applied


CALLS = {
    "get_many": lambda router: router.get_many(KEYS),
    "scan": lambda router: router.scan(KEYS[10], 100),
    "put_many": lambda router: router.put_many([(key, 1) for key in KEYS]),
    "delete": lambda router: router.delete(KEYS[5]),
}
FANOUT = {"get_many": NUM_SHARDS, "scan": NUM_SHARDS, "put_many": NUM_SHARDS, "delete": 1}


class TestOnTheCallersThread:
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_shard_work_stays_on_it(self, router, call):
        wal, applied = record_shard_work(router)
        before = set(threading.enumerate())
        CALLS[call](router)
        assert not set(threading.enumerate()) - before
        caller = threading.get_ident()
        assert {thread for _, thread in wal + applied} == {caller}
        assert len({shard for shard, _ in applied}) == FANOUT[call]
        if router.durable and call in ("put_many", "delete"):
            assert {shard for shard, _ in wal} == {shard for shard, _ in applied}
        else:
            assert wal == []

    def test_shard_failure_reaches_the_caller(self, tmp_path):
        """A failed group stops the ``put_many``: the groups before it
        stay written and the ones after it are never tried."""
        with build_router(tmp_path, partitioning="range") as durable:
            wal, _ = record_shard_work(durable)

            def failing_append(pairs):
                raise OSError("disk gone")

            durable.table.shards[1].replicas[0].durable_log.append_put_many = failing_append
            with pytest.raises(OSError, match="disk gone"):
                durable.put_many([(key, 1) for key in KEYS])
            assert wal == [(0, threading.get_ident())]
            by_shard = [shard.items() for shard in durable.table.shards]
            assert {value for _, value in by_shard[0]} == {1}
            for untouched in by_shard[1:]:
                assert all(value == key * 10 for key, value in untouched)


class TestSpansNestUnderTheRoute:
    """``service.shard_op`` is a child of ``service.route`` on every
    path, with the attributes the trace consumers (``repro.obs.stitch``,
    ``docs/observability.md``) read."""

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
        request, records = self.traced(router, lambda r: r.get_many(KEYS))
        shard_ops = self.check_nesting(request, records, "get_many", len(KEYS))
        assert sum(op["attributes"]["count"] for op in shard_ops) == len(KEYS)

        request, records = self.traced(router, lambda r: r.scan(0, 25))
        self.check_nesting(request, records, "scan", 25)

    def test_durable_write_path(self, tmp_path):
        batch = [(key, 3) for key in KEYS]
        with build_router(tmp_path) as durable:
            request, records = self.traced(durable, lambda r: r.put_many(batch))
        shard_ops = self.check_nesting(request, records, "put_many", len(batch))
        appends = self.by_name(records, "durability.wal.append")
        assert {append["parent_id"] for append in appends} == {
            shard_op["span_id"] for shard_op in shard_ops
        }
        for append in appends:
            assert set(append["attributes"]) == {"shard_id", "records", "elapsed_s"}

    def test_range_scan_reports_the_shards_it_read(self):
        """A range scan that its first shard fills reads that shard alone,
        and its route span's ``fanout`` says one."""
        with build_router(partitioning="range") as ranged:
            request, records = self.traced(ranged, lambda r: r.scan(0, 5))
        (route,) = self.by_name(records, "service.route")
        shard_ops = self.by_name(records, "service.shard_op")
        assert route["parent_id"] == request.span_id
        assert route["attributes"]["fanout"] == len(shard_ops) == 1
        assert shard_ops[0]["parent_id"] == route["span_id"]
        assert shard_ops[0]["attributes"]["shard_id"] == 0

    def test_untraced_calls_emit_no_service_spans(self, router):
        with Telemetry.with_memory_trace() as telemetry:
            router.get_many(KEYS)
            router.scan(0, 10)
            assert telemetry.tracer.sink.records == []


class TestShardOpsAreExact:
    """``Shard.ops`` (what ``top`` shows per shard) moves by exactly the
    keys the partitioner routed to the shard — one per scanned shard —
    on the router's key-by-key read, on the inline single-copy path, on
    the replicated ``_read`` path, and under a traced request, which
    reads through ``Shard.get_many``."""

    #: Each data call, the keys it routes (None: a scan, which under
    #: hash partitioning reads every shard once) and what it returns,
    #: in the order the calls run.
    CALLS = {
        "get": (lambda router: router.get(KEYS[7]), [KEYS[7]], KEYS[7] * 10),
        "get_many": (
            lambda router: router.get_many(KEYS[:50]),
            KEYS[:50],
            [key * 10 for key in KEYS[:50]],
        ),
        "put": (lambda router: router.put(10_000, 1), [10_000], None),
        "put_many": (
            lambda router: router.put_many([(k, 2) for k in KEYS[:60]]),
            KEYS[:60],
            None,
        ),
        "delete": (lambda router: router.delete(KEYS[3]), [KEYS[3]], True),
        "scan": (lambda router: router.scan(KEYS[10], 30), None, [(k, 2) for k in KEYS[10:40]]),
    }

    @staticmethod
    def under_request(call, router):
        """``call(router)`` inside a traced request; also the names of
        the spans it emitted."""
        with Telemetry.with_memory_trace() as telemetry:
            tracer = telemetry.tracer
            request = tracer.start_remote("net.server.request", trace_id=5)
            with tracer.adopt(request):
                result = call(router)
            tracer.finish(request)
            return result, {record["name"] for record in tracer.sink.records}

    @pytest.mark.parametrize(
        "family, copies, traced",
        [("olc", 1, False), ("adaptive", 2, False), ("olc", 1, True), ("adaptive", 2, True)],
        ids=["olc-inline", "adaptive-2-copies", "olc-inline-traced", "adaptive-2-copies-traced"],
    )
    def test_every_data_call(self, family, copies, traced):
        with ShardRouter.build(
            PAIRS, family=family, num_shards=NUM_SHARDS, replication_factor=copies
        ) as router:
            shards = router.table.shards
            assert all(len(shard.replicas) == copies for shard in shards)
            assert (router.table.readers is not None) == (family == "olc")
            shard_of = router.table.partitioner.shard_of
            for name, (call, routed, returned) in self.CALLS.items():
                before = [shard.stats()["ops"] for shard in shards]
                if traced:
                    result, spans = self.under_request(call, router)
                    assert {"service.route", "service.shard_op"} <= spans, name
                else:
                    result = call(router)
                assert result == returned, name
                if routed is None:
                    expected = dict.fromkeys(range(NUM_SHARDS), 1)
                else:
                    expected = Counter(shard_of(key) for key in routed)
                moved = [shard.stats()["ops"] - was for shard, was in zip(shards, before)]
                assert moved == [expected.get(shard, 0) for shard in range(NUM_SHARDS)], name

    def test_threaded_reads_beside_a_writer(self):
        """Reader threads run ``get_many`` and ``scan`` while a writer runs
        ``put_many`` on an OLC router: every read sees a value some write
        gave its key, and ``sum(Shard.ops)`` is exactly the keys read and
        written plus one per shard per scan — the router's key-by-key
        read loses no count to the writer's."""
        with build_router() as router:
            counted = {"keys": 0, "scans": 0}
            count_lock = threading.Lock()
            failures = []

            def reader(seed):
                keys = KEYS[seed::7][:8]
                allowed = {key: {key * 10 + rnd for rnd in range(41)} for key in keys}
                reads = scans = 0
                for rnd in range(300):
                    values = router.get_many(keys)
                    reads += len(keys)
                    failures.extend(
                        (key, value) for key, value in zip(keys, values) if value not in allowed[key]
                    )
                    if rnd % 50 == 0:
                        router.scan(KEYS[seed], 10)
                        scans += 1
                with count_lock:
                    counted["keys"] += reads
                    counted["scans"] += scans

            def writer():
                written = 0
                for rnd in range(1, 41):
                    batch = [(key, key * 10 + rnd) for key in KEYS[rnd % 5 :: 25]]
                    router.put_many(batch)
                    written += len(batch)
                with count_lock:
                    counted["keys"] += written

            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
            threads.append(threading.Thread(target=writer))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            ops = sum(shard.ops for shard in router.table.shards)
            assert ops == counted["keys"] + NUM_SHARDS * counted["scans"]


def test_untraced_get_many_call_budget():
    """An untraced ``get_many`` of 8 keys over 4 OLC shards makes at most
    26 Python-level calls (23 on 3.11): one routing pass for the batch,
    then per key an OLC lookup and its leaf read, with the tracer read
    and the leaf-visit event charged inline; no group, no scatter and no
    ``Shard.get_many`` frame.  Grouped per shard, with a tracer call and
    an ``OpCounters.add`` per lookup, the same read made 46."""
    with build_router() as router:
        keys = KEYS[::50]
        assert len(keys) == 8
        values, calls = count_calls(lambda: router.get_many(keys))
        assert values == [key * 10 for key in keys]
        assert len(calls) <= 26, Counter(calls).most_common()


def test_untraced_locked_get_many_call_budget():
    """The same ``get_many`` over 4 ``adaptive`` shards, whose copies are
    locked, makes at most 110 Python-level calls (55 on 3.11): per key a
    tree lookup, the access hook, the sample gate, and the leaf's lookup
    and probe; per shard one ``get_many`` and its tracer read.  With a
    tracer read, a descent, two ``OpCounters.add`` frames and a gate that
    called the sampler per key it made 95, and a batch path grown back
    into the shard (a sort, then ``lookup_many`` decoding whole blocks)
    costs 128."""
    with ShardRouter.build(PAIRS, family="adaptive", num_shards=NUM_SHARDS) as router:
        keys = KEYS[::50]
        values, calls = count_calls(lambda: router.get_many(keys))
        assert values == [key * 10 for key in keys]
        assert len(calls) <= 110, Counter(calls).most_common()


def test_untraced_replicated_get_many_call_budget():
    """The same ``get_many`` over 4 ``adaptive`` shards of two copies
    (point, scan; ``net_write``'s shape) makes at most 165 Python-level
    calls in each of 16 consecutive batches (83-120 on 3.11, 123-160
    before the tree's lookup lost six frames; the highest end an
    adaptation phase): per shard one ``pick`` with its two pools and a
    ``_read``.  Cost routing, which priced every 8th batch per copy and
    scored every copy per pick, reached 260."""
    with ShardRouter.build(
        PAIRS, family="adaptive", num_shards=NUM_SHARDS, replication_factor=2
    ) as router:
        keys = KEYS[::50]
        values, calls = count_calls(lambda: router.get_many(keys), batches=16)
        assert values == [key * 10 for key in keys]
        assert len(calls) <= 165, Counter(calls).most_common()


def test_untraced_put_many_call_budget():
    """An untraced ``put_many`` of 8 pairs over 4 OLC shards makes at most
    100 Python-level calls (73 on 3.11): per key a lock upgrade, a leaf
    write, its two size reads and the unlock; per shard one gated write,
    ``put_many``, ``_fanout_write`` and ``insert_many``, which charges
    its counter events inline; and no frame that does no work."""
    with build_router() as router:
        batch = [(key, key * 10 + 1) for key in KEYS[::50]]
        assert len(batch) == 8
        _, calls = count_calls(lambda: router.put_many(batch))
        assert router.get_many([key for key, _ in batch]) == [value for _, value in batch]
        assert len(calls) <= 100, Counter(calls).most_common()


def test_untraced_scan_call_budget():
    """An untraced hash ``scan`` of 50 over 4 OLC shards makes at most 40
    Python-level calls (25 on 3.11): per shard a ``scan``, its tracer
    read, an OLC descent and one slice per visited leaf (its leaf visit
    charged inline), then one sort, with no frame per merged pair."""
    with build_router() as router:
        result, calls = count_calls(lambda: router.scan(KEYS[10], 50))
        assert result == PAIRS[10:60]
        assert len(calls) <= 40, Counter(calls).most_common()


def test_untraced_replicated_put_many_call_budget():
    """An untraced ``put_many`` of 8 pairs (4 overwrites, 4 new keys) over
    4 ``adaptive`` shards of two copies (point, scan; ``net_write``'s
    shape) makes at most 360 Python-level calls in each of 16
    consecutive batches (259-279 on 3.11; 323-343 while the tree charged
    through ``OpCounters.add``): per key and copy one tree ``insert``
    with its descent, eager-expansion check, access hook and sample
    gate, and the leaf write.  While the tree ran its own sorted
    ``insert_many``, which descended once per leaf run and drained the
    sampler once per run, the same batches made 274-294: here both of a
    copy's keys share its one leaf, so that body saved a descent and a
    hook per copy, and paid a sortedness check."""
    with ShardRouter.build(
        PAIRS, family="adaptive", num_shards=NUM_SHARDS, replication_factor=2
    ) as router:
        fresh = iter(range(1_000, 2_000, 4))
        written = {}

        def put_batch():
            batch = [(key, key * 10 + 1) for key in KEYS[3::50][:4]]
            batch += [(key, key * 10 + 1) for key in (next(fresh) for _ in range(4))]
            written.update(batch)
            return router.put_many(batch)

        _, calls = count_calls(put_batch, batches=16)
        assert router.get_many(list(written)) == list(written.values())
        assert len(calls) <= 360, Counter(calls).most_common()
