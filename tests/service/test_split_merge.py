"""Online shard split/merge: build-aside+swap, faults, concurrency."""

import contextlib
import random
import sys
import threading

import pytest

from repro.faults.injector import FaultInjector, InjectedFault
from repro.service.partition import PartitionError
from repro.service.router import ShardRouter

SPLIT_SITES = ("service.split.collect", "service.split.build", "service.split.swap")
MERGE_SITES = ("service.merge.collect", "service.merge.build", "service.merge.swap")
CAMPAIGN_SHAPES = ({"family": "olc"}, {"family": "adaptive", "replication_factor": 2})
CAMPAIGN_IDS = ("plain", "replicated")


def int_pairs(count=1500):
    return [(key * 2, key) for key in range(count)]


def contents(router):
    return router.scan(-(10**12), 10**6)


class _RecordingLock:
    """RLock stand-in that logs every acquisition under a label."""

    def __init__(self, label, log):
        self._lock = threading.RLock()
        self._label = label
        self._log = log

    def acquire(self, *args, **kwargs):
        acquired = self._lock.acquire(*args, **kwargs)
        if acquired:
            self._log.append(self._label)
        return acquired

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


class TestSplit:
    @pytest.mark.parametrize("family", ("olc", "adaptive", "dualstage"))
    def test_split_preserves_contents(self, family):
        pairs = int_pairs()
        with ShardRouter.build(
            pairs, family=family, num_shards=2, partitioning="range"
        ) as router:
            split_key = router.split_shard(1)
            assert router.num_shards == 3
            assert router.splits == 1
            assert contents(router) == pairs
            router.verify()
            # The new boundary routes the split key to the right-hand shard.
            assert router.table.partitioner.shard_of(split_key) == 2

    def test_split_at_explicit_key(self):
        pairs = int_pairs(400)
        with ShardRouter.build(pairs, num_shards=1, partitioning="range") as router:
            router.split_shard(0, at_key=100)
            low, high = router.table.partitioner.shard_range(0)
            assert (low, high) == (None, 100)
            left, right = router.table.shards
            assert left.num_keys == 50  # keys 0, 2, ..., 98
            assert right.num_keys == len(pairs) - 50
            assert contents(router) == pairs

    def test_split_rejects_hash_partitioning(self):
        with ShardRouter.build(
            int_pairs(200), num_shards=2, partitioning="hash"
        ) as router, pytest.raises(PartitionError):
            router.split_shard(0)

    def test_split_rejects_bad_ids_and_tiny_shards(self):
        with ShardRouter.build(
            int_pairs(100), num_shards=1, partitioning="range"
        ) as router:
            with pytest.raises(PartitionError):
                router.split_shard(5)
            router.put(10**9, 1)  # shard 0 now splittable; make a 1-key shard
            router.split_shard(0, at_key=10**9)
            with pytest.raises(PartitionError):
                router.split_shard(1)  # single-key shard has no interior


class TestMerge:
    @pytest.mark.parametrize("family", ("olc", "adaptive", "dualstage"))
    def test_merge_preserves_contents(self, family):
        pairs = int_pairs()
        with ShardRouter.build(
            pairs, family=family, num_shards=4, partitioning="range"
        ) as router:
            router.merge_shards(1)
            assert router.num_shards == 3
            assert router.merges == 1
            assert contents(router) == pairs
            router.verify()

    def test_split_then_merge_round_trips(self):
        pairs = int_pairs(800)
        with ShardRouter.build(pairs, num_shards=2, partitioning="range") as router:
            before = router.table.partitioner.boundaries
            key = router.split_shard(0)
            assert router.table.partitioner.boundaries.count(key) == 1
            router.merge_shards(0)
            assert router.table.partitioner.boundaries == before
            assert contents(router) == pairs

    def test_merge_acquires_both_gates_before_any_op_lock(self):
        """Lock hierarchy regression (RA001): gates rank above op locks.

        ``merge_shards`` used to interleave ``gate, op, gate, op`` across
        the two shards, inverting the gate->op order writers rely on and
        opening a deadlock window against a writer holding the right
        shard's gate.  Both write gates must be acquired before either
        operation lock.
        """
        pairs = int_pairs(400)
        with ShardRouter.build(
            pairs, family="adaptive", num_shards=2, partitioning="range"
        ) as router:
            log = []
            left, right = router.table.shards
            for label, shard in (("left", left), ("right", right)):
                shard.write_gate = _RecordingLock(f"{label}.gate", log)
                shard.replicas[0].op_lock = _RecordingLock(f"{label}.op", log)
            router.merge_shards(0)
            gate_positions = [i for i, name in enumerate(log) if name.endswith(".gate")]
            op_positions = [i for i, name in enumerate(log) if name.endswith(".op")]
            assert gate_positions, "merge never took the write gates"
            assert op_positions, "merge never took the op locks"
            assert max(gate_positions) < min(op_positions)
            assert contents(router) == pairs

    def test_merge_rejects_last_shard(self):
        with ShardRouter.build(
            int_pairs(100), num_shards=2, partitioning="range"
        ) as router, pytest.raises(PartitionError):
            router.merge_shards(1)


class TestFaultInjectedSplitMerge:
    @pytest.mark.parametrize("site", SPLIT_SITES)
    def test_fault_during_split_loses_nothing(self, site):
        pairs = int_pairs(600)
        with ShardRouter.build(pairs, num_shards=2, partitioning="range") as router:
            with FaultInjector(site=site, fail_at=1) as injector:
                with pytest.raises(InjectedFault):
                    router.split_shard(0)
                assert injector.failures_injected == 1
            assert router.num_shards == 2
            assert router.splits == 0
            assert contents(router) == pairs
            router.verify()
            # The service still accepts traffic and can split afterwards.
            router.split_shard(0)
            assert contents(router) == pairs

    @pytest.mark.parametrize("site", MERGE_SITES)
    def test_fault_during_merge_loses_nothing(self, site):
        pairs = int_pairs(600)
        with ShardRouter.build(pairs, num_shards=3, partitioning="range") as router:
            with FaultInjector(site=site, fail_at=1), pytest.raises(InjectedFault):
                router.merge_shards(0)
            assert router.num_shards == 3
            assert router.merges == 0
            assert contents(router) == pairs
            router.verify()

    @staticmethod
    def run_campaign(shape, num_keys, rounds, rate, seed):
        """Random splits and merges with every ``service.*`` site armed.

        After each round 50 random keys (hits and misses) are read back;
        the router must verify and hold exactly its keys at the end.
        Returns the number of faults injected.
        """
        rng = random.Random(0xC0FFEE)
        pairs = int_pairs(num_keys)
        expected = dict(pairs)
        with ShardRouter.build(
            pairs, num_shards=2, partitioning="range", **shape
        ) as router:
            with FaultInjector(site="service.*", rate=rate, seed=seed) as injector:
                for _ in range(rounds):
                    with contextlib.suppress(InjectedFault, PartitionError):
                        if rng.random() < 0.5 and router.num_shards > 1:
                            router.merge_shards(rng.randrange(router.num_shards - 1))
                        else:
                            router.split_shard(rng.randrange(router.num_shards))
                    keys = rng.sample(range(num_keys * 2), 50)
                    assert router.get_many(keys) == [expected.get(key) for key in keys]
                router.verify()
            assert contents(router) == pairs
        return injector.failures_injected

    @pytest.mark.parametrize("shape", CAMPAIGN_SHAPES, ids=CAMPAIGN_IDS)
    def test_randomized_campaign_zero_lost_keys(self, shape):
        assert self.run_campaign(shape, 500, 30, rate=0.4, seed=99) > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("shape", CAMPAIGN_SHAPES, ids=CAMPAIGN_IDS)
    def test_randomized_campaign_at_scale_zero_lost_keys(self, shape):
        assert self.run_campaign(shape, 5_000, 60, rate=0.35, seed=0xFA11) > 0


class TestConcurrentReadersDuringSplit:
    @pytest.mark.parametrize("family", ("olc", "adaptive"))
    def test_readers_never_miss_during_split_merge(self, family):
        pairs = int_pairs(1200)
        expected = dict(pairs)
        router = ShardRouter.build(
            pairs, family=family, num_shards=2, partitioning="range"
        )
        stop = threading.Event()
        failures = []

        def reader(seed):
            # Reads and scans run on this thread (default ``max_workers``:
            # the pool is for durable writes only), racing the table swaps.
            rng = random.Random(seed)
            while not stop.is_set():
                keys = [rng.randrange(0, 1200) * 2 for _ in range(64)]
                values = router.get_many(keys)
                for key, value in zip(keys, values):
                    if value != expected[key]:
                        failures.append((key, value))
                        return
                start = rng.randrange(0, 1100)
                scanned = router.scan(start * 2, 48)
                if scanned != pairs[start : start + 48]:
                    failures.append((start, scanned))
                    return

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                router.split_shard(router.num_shards // 2)
            for _ in range(5):
                router.merge_shards(0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
            router.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert contents(router) == pairs

    def test_stale_writer_is_rerouted_after_split_swap(self):
        """Deterministic lost-write regression: a writer that captured a
        shard from the pre-split table must not write into it once the
        table has been swapped — the revalidation under the write gate
        has to land the pairs in the current table instead."""
        pairs = int_pairs(600)
        with ShardRouter.build(pairs, num_shards=2, partitioning="range") as router:
            stale_table = router.table
            stale_shard = stale_table.shards[1]
            key = pairs[-1][0] + 2
            assert stale_table.partitioner.shard_of(key) == 1
            router.split_shard(1)  # stale_shard is now orphaned
            assert stale_shard not in router.table.shards
            # Emulate the racing writer: it routed `key` to stale_shard
            # before the swap and only now acquires the write gate.
            router._write_group(stale_shard, [(key, 42)], stale_table)
            assert router.get(key) == 42
            assert stale_shard.get(key) is None
            router.verify()

    def test_stale_batch_scattered_across_new_shards(self):
        """A stale batch whose keys the swap scattered over several new
        shards is re-fanned-out, losing nothing."""
        pairs = int_pairs(600)
        with ShardRouter.build(pairs, num_shards=1, partitioning="range") as router:
            stale_table = router.table
            stale_shard = stale_table.shards[0]
            router.split_shard(0)
            router.split_shard(0)
            assert router.num_shards == 3
            batch = [(key + 1, key) for key, _ in pairs[::100]]
            router._write_group(stale_shard, batch, stale_table)
            assert router.get_many([key for key, _ in batch]) == [
                value for _, value in batch
            ]
            assert all(stale_shard.get(key) is None for key, _ in batch)
            router.verify()

    def test_writers_blocked_during_split_land_afterwards(self):
        pairs = int_pairs(600)
        router = ShardRouter.build(pairs, num_shards=2, partitioning="range")
        done = threading.Event()
        written = []

        def writer():
            for position in range(200):
                key = 10**9 + position
                router.put(key, position)
                written.append(key)
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            while not done.is_set():
                router.split_shard(router.num_shards - 1)
                if router.num_shards > 6:
                    router.merge_shards(router.num_shards - 2)
        finally:
            thread.join()
            router.close()
        values = router.get_many(written)
        assert values == list(range(200))
        router.verify()
