"""Replica sets: fan-out, fencing, fallback, revive, verify.

A shard is a replica set of N >= 1 copies with one write path, so the
fencing and fallback tests run at factor 1 too: a single copy must
behave exactly like a plain index (the error surfaces, the copy stays
up, a torn append poisons its log).
"""

import contextlib
import threading

import pytest

from repro.core.invariants import InvariantViolation
from repro.durability import WalPoisonedError
from repro.durability.manager import DurabilityManager
from repro.faults.injector import FaultInjector, InjectedFault
from repro.replication import ReplicaSetUnavailableError
from repro.service.router import ShardTemplate


def make_shard(num_keys=500, durability=None, factor=3, profiles=None):
    """An adaptive shard: plain at factor 1, else ``profiles`` or the
    default line-up (point, scan, balanced)."""
    pairs = [(key, key + 1) for key in range(0, num_keys * 2, 2)]
    template = ShardTemplate.resolve("adaptive", factor=factor, profiles=profiles)
    logs = None
    if durability is not None:
        logs = durability.create_logs(0, 0, pairs, template.replication)
    return template.make(0, pairs, logs)


class TestBasics:
    def test_reads_and_writes_fan_out(self):
        shard = make_shard()
        assert shard.get_many([10, 11]) == [11, None]
        shard.put_many([(11, 99)])
        assert shard.get_many([11]) == [99]
        shard.put_many([(201, 1), (203, 2)])
        assert shard.get_many([201, 203, 205]) == [1, 2, None]
        assert shard.delete(201) is True
        assert shard.delete(201) is False
        assert [pair[0] for pair in shard.scan(0, 3)] == [0, 2, 4]
        shard.verify()

    def test_every_replica_sees_every_write(self):
        shard = make_shard(num_keys=50)
        shard.put_many([(odd, odd * 2) for odd in range(1, 41, 2)])
        contents = [replica.items() for replica in shard.replicas]
        assert contents[0] == contents[1] == contents[2]

    def test_stats_exposes_per_replica_rows(self):
        shard = make_shard()
        stats = shard.stats()
        assert stats["replication_factor"] == 3
        assert stats["replicas_up"] == 3
        profiles = [row["profile"] for row in stats["replicas"]]
        assert profiles == ["point", "scan", "balanced"]
        assert all("reads_routed" in row for row in stats["replicas"])

    def test_size_counts_every_replica(self):
        shard = make_shard()
        single = shard.replicas[0].index.size_bytes()
        assert shard.size_bytes() > single


class TestReadFailover:
    @pytest.mark.parametrize("factor", [1, 2])
    def test_failed_read_reroutes_without_raising(self, factor):
        shard = make_shard(factor=factor)
        # The only copy, or the point copy: it takes every point read.
        target = shard.replicas[0]

        def explode(key):
            raise RuntimeError("replica storage failure")

        target.index.lookup = explode
        if factor == 1:
            # No survivor: the error surfaces as the index raised it and
            # the copy stays up.
            with pytest.raises(RuntimeError, match="storage failure"):
                shard.get_many([10, 12])
            assert not target.down
            return
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
            shard.get_many([10])


class TestWriteFencing:
    @pytest.mark.parametrize("factor", [1, 2])
    def test_poisoned_wal_fences_only_that_replica(self, tmp_path, factor):
        durability = DurabilityManager(tmp_path)
        shard = make_shard(num_keys=100, durability=durability, factor=factor)
        poisoned = shard.replicas[-1].durable_log
        refused = pytest.raises(InjectedFault) if factor == 1 else contextlib.nullcontext()
        try:
            # Tear the last copy's append of one fan-out: appends run in
            # copy order, so fail_at=factor poisons exactly that copy.
            with FaultInjector(
                site="durability.wal.append", fail_at=factor, max_failures=1
            ) as injector, refused:
                shard.put_many([(1, 10), (3, 30)])
            assert injector.failures_injected == 1
            assert poisoned.wal.poisoned is not None
            if factor == 1:
                # No copy accepted: the fault surfaced, nothing applied,
                # the copy stays up, and its log refuses every later ack.
                assert not shard.replicas[0].down
                with pytest.raises(WalPoisonedError):
                    shard.put_many([(5, 50)])
                assert shard.get_many([1, 3, 5]) == [None, None, None]
                return
            assert [replica.down for replica in shard.replicas] == [False, True]
            # The write acked on the survivor.
            assert shard.get_many([1, 3]) == [10, 30]
            # Behind counts the failed batch's 2 records plus every
            # later write the fenced replica misses.
            shard.put_many([(5, 50)])
            assert shard.replicas[1].behind == 3
            assert shard.get_many([5]) == [50]
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
            shard.put_many([(1, 1)])


class TestRevive:
    def test_revive_rebuilds_from_authoritative_copy(self):
        shard = make_shard(num_keys=100)
        shard.mark_down(shard.replicas[2], "operator")
        shard.put_many([(odd, odd) for odd in range(1, 21, 2)])
        assert shard.replicas[2].behind == 10
        revived = shard.revive(2)
        assert not revived.down
        assert revived.behind == 0
        assert revived.profile.name == "balanced"
        assert revived.items() == shard.replicas[0].items()
        shard.verify()

    def test_revive_is_idempotent_on_live_replica(self):
        shard = make_shard()
        assert shard.revive(0) is shard.replicas[0]


class TestVerify:
    def test_verify_detects_content_divergence(self):
        shard = make_shard(num_keys=50)
        # Corrupt one live replica behind the fan-out's back.
        shard.replicas[1].index.insert(999, 999)
        with pytest.raises(InvariantViolation, match="diverged"):
            shard.verify()

    def test_verify_skips_down_replicas(self):
        shard = make_shard(num_keys=50)
        shard.replicas[1].index.insert(999, 999)
        shard.mark_down(shard.replicas[1], "known bad")
        shard.verify()


class TestPerCopyLocking:
    def test_read_on_one_copy_never_waits_on_another_copys_append(self, tmp_path):
        """Each copy has its own operation lock: while copy 0 sits in its
        WAL append (an ``fsync``, in production), a read routed to copy 1
        completes.  One lock shared by the copies would block it."""
        # Copy 1 is the point copy, so it serves every point read.
        shard = make_shard(
            num_keys=100,
            durability=DurabilityManager(tmp_path, sync="none"),
            factor=2,
            profiles=["scan", "point"],
        )
        appending, release = threading.Event(), threading.Event()
        log = shard.replicas[0].durable_log
        append = log.append_put_many

        def stalled_append(pairs):
            appending.set()
            release.wait(10)
            return append(pairs)

        log.append_put_many = stalled_append
        writer = threading.Thread(target=shard.put_many, args=([(1, 10)],))
        answers = []
        reader = threading.Thread(target=lambda: answers.append(shard.get_many([10, 12])))
        writer.start()
        try:
            assert appending.wait(10)
            reader.start()
            reader.join(5)
            assert not reader.is_alive(), "the read on copy 1 waited on copy 0's append"
            assert answers == [[11, 13]]
        finally:
            release.set()
            writer.join(10)
            reader.join(10)
            shard.close_logs()
        assert [replica.index.lookup(1) for replica in shard.replicas] == [10, 10]
