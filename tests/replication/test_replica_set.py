"""Replicated shards: fan-out, fencing, fallback, revive, verify."""

import pytest

from repro.core.invariants import InvariantViolation
from repro.durability.manager import DurabilityManager
from repro.faults.injector import FaultInjector
from repro.replication import (
    REPLICA_PROFILES,
    ReplicaSetUnavailableError,
    build_replicated_shard,
)

PROFILES = [REPLICA_PROFILES[name] for name in ("point", "scan", "squeezed")]


def make_shard(num_keys=500, durability=None):
    pairs = [(key, key + 1) for key in range(0, num_keys * 2, 2)]
    logs = None
    if durability is not None:
        logs = durability.create_logs(0, 0, pairs, {"factor": len(PROFILES)})
    return build_replicated_shard(0, pairs, PROFILES, logs)


class TestBasics:
    def test_reads_and_writes_fan_out(self):
        shard = make_shard()
        assert shard.get(10) == 11
        assert shard.get(11) is None
        shard.put(11, 99)
        assert shard.get(11) == 99
        shard.put_many([(201, 1), (203, 2)])
        assert shard.get_many([201, 203, 205]) == [1, 2, None]
        assert shard.delete(201) is True
        assert shard.delete(201) is False
        assert [pair[0] for pair in shard.scan(0, 3)] == [0, 2, 4]
        shard.verify()

    def test_every_replica_sees_every_write(self):
        shard = make_shard(num_keys=50)
        shard.put_many([(odd, odd * 2) for odd in range(1, 41, 2)])
        contents = [replica.shard.items() for replica in shard.replicas]
        assert contents[0] == contents[1] == contents[2]

    def test_stats_exposes_per_replica_rows(self):
        shard = make_shard()
        stats = shard.stats()
        assert stats["replication_factor"] == 3
        assert stats["replicas_up"] == 3
        profiles = [row["profile"] for row in stats["replicas"]]
        assert profiles == ["point", "scan", "squeezed"]
        assert len(stats["routing"]) == 3

    def test_size_counts_every_replica(self):
        shard = make_shard()
        single = shard.replicas[0].shard.size_bytes()
        assert shard.size_bytes() > single


class TestReadFailover:
    def test_failed_read_reroutes_without_raising(self):
        shard = make_shard()
        target = shard.router.pick(shard, "point")
        shard.router._picks["point"] = 0  # rewind so the next pick repeats

        def explode(keys):
            raise RuntimeError("replica storage failure")

        target.shard.get_many = explode
        # The batch must succeed on a survivor; the caller never sees it.
        assert shard.get_many([10, 12]) == [11, 13]
        assert target.down
        assert "storage failure" in target.down_reason

    def test_mid_stream_down_reroutes_later_batches(self):
        shard = make_shard()
        shard.mark_down(shard.replicas[0], "operator")
        for _ in range(8):
            assert shard.get_many([10, 14]) == [11, 15]
        assert shard.replicas[0].reads_routed == 0

    def test_all_replicas_down_read_raises(self):
        shard = make_shard()
        for replica in shard.replicas:
            shard.mark_down(replica, "test")
        with pytest.raises(ReplicaSetUnavailableError):
            shard.get(10)


class TestWriteFencing:
    def test_poisoned_wal_fences_only_that_replica(self, tmp_path):
        durability = DurabilityManager(tmp_path)
        shard = make_shard(num_keys=100, durability=durability)
        try:
            # Fail the second replica's append of one fan-out: appends
            # run in replica order, so fail_at=2 poisons exactly r1.
            with FaultInjector(
                site="durability.wal.append", fail_at=2, max_failures=1
            ) as injector:
                shard.put_many([(1, 10), (3, 30)])
            assert injector.failures_injected == 1
            downs = [replica.down for replica in shard.replicas]
            assert downs == [False, True, False]
            poisoned = shard.replicas[1].shard.durable_log
            assert poisoned is not None and poisoned.wal.poisoned is not None
            # The write acked on the survivors.
            assert shard.get_many([1, 3]) == [10, 30]
            # Behind counts the failed batch's 2 records plus every
            # later write the fenced replica misses.
            shard.put_many([(5, 50)])
            assert shard.replicas[1].behind == 3
            assert shard.get(5) == 50
        finally:
            shard.close_logs()

    def test_poisoned_replica_cannot_revive_in_process(self, tmp_path):
        durability = DurabilityManager(tmp_path)
        shard = make_shard(num_keys=100, durability=durability)
        try:
            with FaultInjector(
                site="durability.wal.append", fail_at=2, max_failures=1
            ):
                shard.put_many([(1, 10)])
            with pytest.raises(RuntimeError, match="poisoned"):
                shard.revive(1)
        finally:
            shard.close_logs()

    def test_all_replicas_down_write_raises(self):
        shard = make_shard()
        for replica in shard.replicas:
            shard.mark_down(replica, "test")
        with pytest.raises(ReplicaSetUnavailableError):
            shard.put(1, 1)


class TestRevive:
    def test_revive_rebuilds_from_authoritative_copy(self):
        shard = make_shard(num_keys=100)
        shard.mark_down(shard.replicas[2], "operator")
        shard.put_many([(odd, odd) for odd in range(1, 21, 2)])
        assert shard.replicas[2].behind == 10
        revived = shard.revive(2)
        assert not revived.down
        assert revived.behind == 0
        assert revived.profile.name == "squeezed"
        assert revived.shard.items() == shard.replicas[0].shard.items()
        shard.verify()

    def test_revive_is_idempotent_on_live_replica(self):
        shard = make_shard()
        assert shard.revive(0) is shard.replicas[0]


class TestVerify:
    def test_verify_detects_content_divergence(self):
        shard = make_shard(num_keys=50)
        # Corrupt one live replica behind the fan-out's back.
        shard.replicas[1].shard.index.insert(999, 999)
        with pytest.raises(InvariantViolation, match="diverged"):
            shard.verify()

    def test_verify_skips_down_replicas(self):
        shard = make_shard(num_keys=50)
        shard.replicas[1].shard.index.insert(999, 999)
        shard.mark_down(shard.replicas[1], "known bad")
        shard.verify()
