"""ShardRouter: batched routing, cross-shard scans, metrics, budgets."""

import random
import sys
import threading

import pytest

from repro.bptree.olc import _lock_of
from repro.obs import MetricsRegistry, Telemetry
from repro.service.partition import HashPartitioner, PartitionError, Partitioner
from repro.service.router import (
    FAMILY_FACTORIES,
    ReadOnlyShardError,
    ShardRouter,
    ShardTemplate,
)

FAMILIES = ("olc", "adaptive", "dualstage")
PARTITIONINGS = ("hash", "range")


def int_pairs(count=2000, step=3):
    return [(key * step, key * step + 1) for key in range(count)]


def byte_pairs(count=400, seed=7):
    rng = random.Random(seed)
    words = set()
    while len(words) < count:
        words.add(bytes(rng.randrange(97, 123) for _ in range(rng.randrange(3, 9))))
    return [(word + b"\x00", rank) for rank, word in enumerate(sorted(words))]


@pytest.fixture(params=PARTITIONINGS)
def partitioning(request):
    return request.param


class TestBuild:
    def test_unknown_family_and_partitioning_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter.build(int_pairs(10), family="btree9000")
        with pytest.raises(ValueError):
            ShardRouter.build(int_pairs(10), partitioning="modulo")

    def test_shard_count_must_match_partitioner(self):
        from repro.service.shard import Replica, Shard

        factory = FAMILY_FACTORIES["olc"]
        with pytest.raises(PartitionError):
            ShardRouter(
                [Shard(0, [Replica(0, factory, [])])],
                HashPartitioner(2),
                ShardTemplate((factory,)),
            )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_keys_loaded_and_routable(self, family, partitioning):
        pairs = int_pairs(1200)
        with ShardRouter.build(
            pairs, family=family, num_shards=4, partitioning=partitioning
        ) as router:
            assert len(router) == len(pairs)
            assert router.num_shards == 4
            router.verify()

    def test_verify_names_each_misplaced_key_once(self):
        """A key in the wrong shard's index is one violation, naming the
        key, the shard that holds it and the shard it routes to."""
        from repro.core.invariants import InvariantViolation

        with ShardRouter.build(int_pairs(40), num_shards=4) as router:
            expected = []
            for key in (10**6, 10**6 + 1):
                routed = router.table.partitioner.shard_of(key)
                holder = (routed + 1) % 4
                router.table.shards[holder].replicas[0].index.insert(key, 1)
                expected.append(
                    f"key {key} lives on shard {holder} but routes to shard {routed}"
                )
                with pytest.raises(InvariantViolation) as caught:
                    router.verify()
                assert sorted(caught.value.violations) == sorted(expected)


class TestPointAndBatchedOps:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_get_many_alignment_hits_and_misses(self, family, partitioning):
        pairs = int_pairs(1500)
        with ShardRouter.build(
            pairs, family=family, num_shards=4, partitioning=partitioning
        ) as router:
            rng = random.Random(42)
            expected = dict(pairs)
            probes = [rng.randrange(0, 1500 * 3 + 10) for _ in range(600)]
            values = router.get_many(probes)
            assert values == [expected.get(key) for key in probes]

    def test_get_many_empty_batch(self, partitioning):
        with ShardRouter.build(
            int_pairs(100), num_shards=2, partitioning=partitioning
        ) as router:
            assert router.get_many([]) == []
            assert router.scan(0, 0) == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_put_many_then_read_back(self, family, partitioning):
        pairs = int_pairs(800)
        with ShardRouter.build(
            pairs, family=family, num_shards=3, partitioning=partitioning
        ) as router:
            fresh = [(10**7 + key, key) for key in range(250)]
            overwrite = [(key, 999) for key, _ in pairs[:50]]
            router.put_many(fresh + overwrite)
            assert router.get_many([key for key, _ in fresh]) == [
                value for _, value in fresh
            ]
            assert router.get_many([key for key, _ in overwrite]) == [999] * 50

    @pytest.mark.parametrize("family", FAMILIES)
    def test_put_get_delete_single_key(self, family, partitioning):
        with ShardRouter.build(
            int_pairs(300), family=family, num_shards=2, partitioning=partitioning
        ) as router:
            router.put(-77, 123)
            assert router.get(-77) == 123
            assert router.delete(-77) is True
            assert router.get(-77) is None
            assert router.delete(-77) is False


class TestOlcWritesKeepTheVersionProtocol:
    """The service-default family carries no shard operation lock: its
    readers rely on every router write bumping the leaf's version."""

    def test_put_and_put_many_advance_the_leaf_version(self):
        with ShardRouter.build(int_pairs(200), family="olc", num_shards=1) as router:
            tree = router.table.shards[0].replicas[0].index
            leaf, _ = tree.find_leaf(1)
            router.put(1, 1)
            assert _lock_of(leaf).version == 2
            router.put_many([(2, 2)])
            assert _lock_of(leaf).version == 4
            router.put_many([(4, 4), (5, 5)])
            assert _lock_of(leaf).version == 8

    @pytest.mark.parametrize("writes", [2_000, pytest.param(60_000, marks=pytest.mark.slow)])
    def test_get_many_never_misreads_under_concurrent_put_many(self, writes):
        """Readers fetch keys that are never written while a writer fills
        the gaps between them (shifting and splitting their leaves)."""
        span, gap = 64, 1000
        keys = [position * gap for position in range(span)]
        expected = list(range(span))
        router = ShardRouter.build(
            list(zip(keys, expected)), family="olc", num_shards=1
        )
        stop = threading.Event()
        misreads = []

        def reader():
            while not stop.is_set():
                values = router.get_many(keys)
                if values != expected:
                    misreads.append(values)
                    return

        fresh = [key for key in range(span * gap) if key % gap]
        random.Random(writes).shuffle(fresh)
        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        for thread in threads:
            thread.start()
        try:
            for key in fresh[:writes]:
                router.put_many([(key, -1)])
            still_reading = [thread.is_alive() for thread in threads]
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
            router.close()
        assert not any(thread.is_alive() for thread in threads)
        assert misreads == []
        assert all(still_reading)  # no reader died on a torn read either


class TestSingleShardTable:
    """One shard: batches go straight to it (no grouping, scatter or merge)."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batched_ops_agree_with_a_dict(self, family, partitioning, monkeypatch):
        def no_grouping(*args):
            raise AssertionError("a single-shard table must not group")

        monkeypatch.setattr(Partitioner, "group", no_grouping)
        monkeypatch.setattr(HashPartitioner, "group", no_grouping)
        pairs = int_pairs(500)
        expected = dict(pairs)
        with ShardRouter.build(
            pairs, family=family, num_shards=1, partitioning=partitioning
        ) as router:
            fresh = [(10**6 + key, key) for key in range(40)] + [(pairs[3][0], -1)]
            router.put_many(fresh)
            expected.update(fresh)
            probes = [pairs[7][0], 1, 10**6 + 5, pairs[3][0], pairs[7][0]]
            assert router.get_many(probes) == [expected.get(key) for key in probes]
            ordered = sorted(expected.items())
            assert router.scan(pairs[100][0], 450) == ordered[100:550]
            assert router.scan(-1, 10**6) == ordered
            router.verify()


class TestCrossShardScan:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_scan_merges_in_key_order(self, family, partitioning):
        pairs = int_pairs(1000)
        with ShardRouter.build(
            pairs, family=family, num_shards=4, partitioning=partitioning
        ) as router:
            # Spans every shard boundary regardless of the partitioning.
            result = router.scan(pairs[100][0], 700)
            assert result == pairs[100:800]

    def test_scan_from_before_and_past_the_keyspace(self, partitioning):
        pairs = int_pairs(300)
        with ShardRouter.build(
            pairs, num_shards=3, partitioning=partitioning
        ) as router:
            assert router.scan(-(10**9), 50) == pairs[:50]
            assert router.scan(pairs[-1][0] + 1, 50) == []
            assert router.scan(0, 10**6) == pairs

    def test_scan_count_is_exact_at_shard_boundaries(self):
        pairs = int_pairs(400)
        with ShardRouter.build(pairs, num_shards=4, partitioning="range") as router:
            boundaries = router.table.partitioner.boundaries
            for boundary in boundaries:
                result = router.scan(boundary - 1, 5)
                expected_start = next(
                    position for position, (key, _) in enumerate(pairs)
                    if key >= boundary - 1
                )
                assert result == pairs[expected_start : expected_start + 5]

    def test_byte_key_scan_on_trie_shards(self, partitioning):
        pairs = byte_pairs(300)
        with ShardRouter.build(
            pairs, family="hybridtrie", num_shards=3, partitioning=partitioning
        ) as router:
            assert router.scan(pairs[0][0], 120) == pairs[:120]
            assert router.get_many([key for key, _ in pairs[::5]]) == [
                value for _, value in pairs[::5]
            ]


class TestReadOnlyFamilies:
    def test_trie_shards_reject_writes(self):
        pairs = byte_pairs(120)
        with ShardRouter.build(
            pairs, family="hybridtrie", num_shards=2, partitioning="range"
        ) as router:
            with pytest.raises(ReadOnlyShardError):
                router.put(b"zzz\x00", 1)
            with pytest.raises(ReadOnlyShardError):
                router.put_many([(b"zzz\x00", 1)])
            with pytest.raises(ReadOnlyShardError):
                router.delete(pairs[0][0])


class TestDualStageKeyCount:
    def test_deletes_leave_the_count_exact(self):
        pairs = int_pairs(100)
        with ShardRouter.build(pairs, family="dualstage", num_shards=2) as router:
            for key, _ in pairs[:2]:
                assert router.delete(key)
            assert len(router) == len(router.scan(pairs[0][0], 1000)) == 98


class TestStatsAndMetrics:
    def test_stats_shape_is_json_safe(self):
        import json

        pairs = int_pairs(500)
        with ShardRouter.build(pairs, num_shards=4, partitioning="range") as router:
            router.get_many([key for key, _ in pairs[:100]])
            stats = router.stats()
            json.dumps(stats)
            assert stats["num_shards"] == 4
            assert stats["num_keys"] == 500
            assert len(stats["shards"]) == 4
            assert stats["imbalance"] >= 1.0

    def test_service_metrics_published_under_telemetry(self):
        pairs = int_pairs(600)
        with ShardRouter.build(pairs, num_shards=3, partitioning="range") as router:
            with Telemetry(registry=MetricsRegistry()) as telemetry:
                router.get_many([key for key, _ in pairs[:200]])
                router.get(pairs[0][0])
                router.put_many([(10**8 + key, key) for key in range(50)])
                router.scan(0, 30)
                router.split_shard(0)
                router.merge_shards(0)
            snapshot = telemetry.registry.snapshot()
            assert snapshot["counters"]["service.ops.read"] == 201
            assert snapshot["counters"]["service.ops.write"] == 50
            assert snapshot["counters"]["service.ops.scan"] == 1
            assert snapshot["counters"]["service.splits"] == 1
            assert snapshot["counters"]["service.merges"] == 1
            assert snapshot["gauges"]["service.shards"] == 3

    def test_shape_gauges_publish_on_stats_not_on_data_calls(self):
        pairs = int_pairs(600)
        with ShardRouter.build(pairs, num_shards=3, partitioning="range") as router:
            with Telemetry(registry=MetricsRegistry()) as telemetry:
                router.get_many([key for key, _ in pairs[:20]])
                router.put_many([(10**8 + key, key) for key in range(600)])
                router.scan(0, 30)
                assert telemetry.registry.snapshot()["gauges"] == {}
                router.stats()
                gauges = telemetry.registry.snapshot()["gauges"]
            assert gauges["service.shards"] == 3
            assert gauges["service.imbalance"] == pytest.approx(router.imbalance())
            assert gauges["service.imbalance"] > 1.4

    def test_imbalance_reflects_skewed_shards(self):
        pairs = int_pairs(900)
        with ShardRouter.build(pairs, num_shards=3, partitioning="range") as router:
            balanced = router.imbalance()
            assert balanced == pytest.approx(1.0, abs=0.1)
            router.put_many([(10**9 + key, key) for key in range(900)])
            assert router.imbalance() > balanced
