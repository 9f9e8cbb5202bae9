"""Durable replicated groups: manifest, recovery, and reconciliation."""

import gc
import json
import warnings
import zlib

import pytest

from repro.durability.codec import CorruptSerializationError
from repro.durability.manager import DurabilityManager, Manifest
from repro.faults.injector import FaultInjector, InjectedFault
from repro.service.router import ShardRouter


def build_router(tmp_path, num_keys=400, num_shards=2, factor=3):
    durability = DurabilityManager(tmp_path)
    pairs = [(key, key + 1) for key in range(0, num_keys * 2, 2)]
    router = ShardRouter.build(
        pairs,
        family="adaptive",
        num_shards=num_shards,
        replication_factor=factor,
        durability=durability,
    )
    return durability, router, dict(pairs)


class TestManifest:
    def test_build_publishes_replica_block(self, tmp_path):
        durability, router, _ = build_router(tmp_path)
        router.close()
        manifest = durability.read_manifest()
        assert manifest.replicas is not None
        assert manifest.replicas["factor"] == 3
        assert manifest.replicas["profiles"] == ["point", "scan", "balanced"]
        assert "policy" not in manifest.replicas
        assert len(manifest.replicas["logs"]) == 2
        for log_ids in manifest.replicas["logs"]:
            assert len(log_ids) == 3

    def test_orphan_sweep_keeps_replica_logs(self, tmp_path):
        durability, router, expected = build_router(tmp_path)
        router.close()
        stray = durability.wal_dir / "e00000099-p0000.wal"
        stray.write_bytes(b"debris")
        recovered = ShardRouter.recover(durability, family="adaptive")
        try:
            assert not stray.exists()
            assert recovered.last_recovery["orphans_removed"] >= 1
            items = sorted(expected.items())
            assert recovered.scan(-1, len(items) + 10) == items
        finally:
            recovered.close()

    def test_unknown_profile_in_manifest_rejected(self, tmp_path):
        durability, router, _ = build_router(tmp_path)
        router.close()
        manifest = durability.read_manifest()
        replicas = dict(manifest.replicas)
        replicas["profiles"] = ["mystery"] + list(replicas["profiles"][1:])
        durability.publish_manifest(
            Manifest(
                epoch=manifest.epoch,
                partitioner=manifest.partitioner,
                shards=manifest.shards,
                replicas=replicas,
            )
        )
        with pytest.raises(ValueError, match="mystery"):
            ShardRouter.recover(durability, family="adaptive")


def write_parent_format_manifest(durability, payload):
    """MANIFEST.json exactly as an earlier writer laid ``payload`` out."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF
    blob = json.dumps({"crc": crc, "payload": payload}, sort_keys=True)
    durability.manifest_path.write_bytes(blob.encode("utf-8"))


def two_copy_manifest(**extra):
    """A factor-2 (point, scan) manifest over two hash shards at epoch 0,
    its ``replicas`` block extended by ``extra``."""
    return {
        "format": 1,
        "epoch": 0,
        "partitioner": {"kind": "hash", "num_shards": 2},
        "shards": ["e00000000-p0000-r00", "e00000000-p0001-r00"],
        "replicas": {
            "factor": 2,
            "profiles": ["point", "scan"],
            "logs": [
                ["e00000000-p0000-r00", "e00000000-p0000-r01"],
                ["e00000000-p0001-r00", "e00000000-p0001-r01"],
            ],
            **extra,
        },
    }


class TestManifestCompatibility:
    def test_replicated_manifest_without_policy_key_recovers(self, tmp_path):
        durability, router, expected = build_router(tmp_path, factor=2)
        router.put(1, 100)
        router.close()
        write_parent_format_manifest(durability, two_copy_manifest())
        recovered = ShardRouter.recover(durability, family="adaptive")
        try:
            assert recovered.get(1) == 100
            assert len(recovered) == len(expected) + 1
            info = recovered.last_recovery
            assert info["replication_factor"] == 2
            assert info["replicas_rebuilt"] == 0
            assert info["frames_replayed"] == 2  # the one put, on both copies
        finally:
            recovered.close()

    @pytest.mark.parametrize("policy", ["round_robin", "cost"])
    def test_manifest_with_a_routing_policy_recovers_and_reads_follow_affinity(
        self, tmp_path, policy
    ):
        """Stores written while reads had a routing policy recorded it in
        the replica block; recovery ignores it."""
        durability, router, expected = build_router(tmp_path, factor=2)
        router.put(1, 100)
        router.close()
        write_parent_format_manifest(durability, two_copy_manifest(policy=policy))
        recovered = ShardRouter.recover(durability, family="adaptive")
        try:
            items = sorted([*expected.items(), (1, 100)])
            assert recovered.scan(-1, len(items) + 10) == items
            keys = [key for key, _ in items]
            assert recovered.get_many(keys) == [value for _, value in items]
            for shard in recovered.table.shards:
                point, scan = shard.replicas
                assert (point.profile.name, scan.profile.name) == ("point", "scan")
                # Every point read went to the point copy, the scan to the scan copy.
                assert point.reads_routed == shard.num_keys
                assert scan.reads_routed == 1
            recovered.verify()
        finally:
            recovered.close()

    def test_manifest_naming_the_retired_squeezed_profile_recovers(self, tmp_path):
        durability, router, expected = build_router(tmp_path)
        router.put(1, 100)
        router.close()
        write_parent_format_manifest(
            durability,
            {
                "format": 1,
                "epoch": 0,
                "partitioner": {"kind": "hash", "num_shards": 2},
                "shards": ["e00000000-p0000-r00", "e00000000-p0001-r00"],
                "replicas": {
                    "factor": 3,
                    "profiles": ["point", "scan", "squeezed"],
                    "policy": "cost",
                    "logs": [
                        [f"e00000000-p{shard:04d}-r{copy:02d}" for copy in range(3)]
                        for shard in range(2)
                    ],
                },
            },
        )
        recovered = ShardRouter.recover(durability, family="adaptive")
        try:
            for shard in recovered.table.shards:
                names = [replica.profile.name for replica in shard.replicas]
                assert names == ["point", "scan", "balanced"]
            assert recovered.get(1) == 100
            items = sorted([*expected.items(), (1, 100)])
            assert recovered.scan(-1, len(items) + 10) == items
            assert recovered.last_recovery["frames_replayed"] == 3
            assert recovered.last_recovery["replicas_rebuilt"] == 0
            recovered.verify()
        finally:
            recovered.close()

    def test_plain_parent_format_manifest_recovers(self, tmp_path):
        durability = DurabilityManager(tmp_path)
        pairs = [(key, key + 1) for key in range(0, 200, 2)]
        router = ShardRouter.build(pairs, num_shards=2, durability=durability)
        router.put(1, 100)
        router.close()
        write_parent_format_manifest(
            durability,
            {
                "format": 1,
                "epoch": 0,
                "partitioner": {"kind": "hash", "num_shards": 2},
                "shards": ["e00000000-p0000", "e00000000-p0001"],
            },
        )
        recovered = ShardRouter.recover(durability)
        try:
            assert len(recovered.table.shards[0].replicas) == 1
            assert recovered.scan(-1, 10**6) == sorted([*pairs, (1, 100)])
            info = recovered.last_recovery
            assert info["frames_replayed"] == 1
            assert info["replicas_rebuilt"] == 0
            for key in ("epoch", "num_shards", "snapshots_skipped", "torn_bytes"):
                assert key in info
        finally:
            recovered.close()


class TestRecoveredTemplate:
    def test_family_must_fit_a_replicated_manifest(self, tmp_path):
        durability, router, _ = build_router(tmp_path)
        router.close()
        with pytest.raises(ValueError, match="adaptive"):
            ShardRouter.recover(durability, family="olc")


class TestRecovery:
    def test_each_replica_recovers_from_its_own_snapshot_and_tail(self, tmp_path):
        durability, router, expected = build_router(tmp_path)
        # Checkpoint gives every replica its own snapshot...
        router.put_many([(odd, odd * 3) for odd in range(1, 41, 2)])
        summaries = router.checkpoint()
        assert len(summaries["shards"]) == 6  # 2 shards x 3 replica logs
        # ...and the post-checkpoint writes are each replica's WAL tail.
        router.put_many([(odd, odd * 7) for odd in range(41, 81, 2)])
        expected.update({odd: odd * 3 for odd in range(1, 41, 2)})
        expected.update({odd: odd * 7 for odd in range(41, 81, 2)})
        router.close()

        recovered = ShardRouter.recover(durability, family="adaptive")
        try:
            info = recovered.last_recovery
            assert info["replication_factor"] == 3
            # Every log was equally fresh: nothing needed rebuilding —
            # each divergent replica came from its own snapshot + tail.
            assert info["replicas_rebuilt"] == 0
            assert info["frames_replayed"] >= 1
            profiles = [
                replica.profile.name
                for replica in recovered.table.shards[0].replicas
            ]
            assert profiles == ["point", "scan", "balanced"]
            items = sorted(expected.items())
            assert recovered.scan(-1, len(items) + 10) == items
            recovered.verify()
        finally:
            recovered.close()

    def test_fenced_straggler_is_rebuilt_from_authoritative(self, tmp_path):
        durability, router, expected = build_router(tmp_path, num_shards=1)
        with FaultInjector(
            site="durability.wal.append", fail_at=2, max_failures=1
        ) as injector:
            router.put_many([(1, 100), (3, 300)])
        assert injector.failures_injected == 1
        expected.update({1: 100, 3: 300})
        # The fenced replica misses these entirely.
        router.put_many([(5, 500), (7, 700)])
        expected.update({5: 500, 7: 700})
        router.close()

        recovered = ShardRouter.recover(durability, family="adaptive")
        try:
            assert recovered.last_recovery["replicas_rebuilt"] >= 1
            items = sorted(expected.items())
            assert recovered.scan(-1, len(items) + 10) == items
            recovered.verify()  # live replicas agree on content again
        finally:
            recovered.close()

    @pytest.mark.parametrize("rebuild", ("revive", "recover"))
    def test_rebuilt_copy_takes_the_authoritative_lsn(self, tmp_path, rebuild):
        """Else the other copy, down later and stale, wins recovery's LSN vote."""
        durability, router, expected = build_router(tmp_path, num_shards=1, factor=2)
        router.table.shards[0].mark_down(router.table.shards[0].replicas[0], "test")
        router.put_many([(1, 10), (3, 30)])  # only the second copy's LSN moves
        if rebuild == "revive":
            router.table.shards[0].revive(0)
        else:
            router.close()
            router = ShardRouter.recover(durability, family="adaptive")
        rebuilt, other = router.table.shards[0].replicas
        assert rebuilt.durable_log.last_lsn == other.durable_log.last_lsn
        router.table.shards[0].mark_down(other, "test")
        router.put(5, 50)  # acked by the rebuilt copy alone
        router.close()
        expected.update({1: 10, 3: 30, 5: 50})
        recovered = ShardRouter.recover(durability, family="adaptive")
        assert recovered.scan(-1, len(expected) + 10) == sorted(expected.items())
        recovered.close()
        # Its pre-rebuild generation would tie the other copy's LSN without the adopted writes.
        log_id = rebuilt.durable_log.log_id
        max(durability.snap_dir.glob(f"{log_id}.*.snap")).write_bytes(b"junk")
        with pytest.raises(CorruptSerializationError, match="cannot reach"):
            ShardRouter.recover(durability, family="adaptive")

    def test_recovered_router_keeps_serving_and_adapting(self, tmp_path):
        durability, router, expected = build_router(tmp_path, num_keys=200)
        router.close()
        recovered = ShardRouter.recover(durability, family="adaptive")
        try:
            keys = sorted(expected)[:50]
            assert recovered.get_many(keys) == [expected[key] for key in keys]
            recovered.put_many([(9991, 1), (9993, 2)])
            assert recovered.get(9991) == 1
            stats = recovered.stats()["shards"][0]
            assert stats["replication_factor"] == 3
        finally:
            recovered.close()


#: Frames each copy of shard 1 replays in the test below.
SHARD_1_FRAMES = 5


@pytest.mark.parametrize("fail_at", [1, SHARD_1_FRAMES + 1], ids=["copy-0", "copy-1"])
def test_recovery_that_raises_on_its_second_shard_closes_every_log(tmp_path, fail_at):
    """Shard 0 is fully reopened (and, at ``copy-1``, so is shard 1's
    first copy) when replay crashes: each reopened log is closed before
    the fault propagates, so none is left to the garbage collector."""
    durability, router, _ = build_router(tmp_path, factor=2)
    router.checkpoint()
    keys = [key for key in range(1, 800, 2) if router.shard_for(key) is router.table.shards[1]]
    router.put_many([(key, key) for key in keys[:SHARD_1_FRAMES]])
    router.close()
    gc.collect()  # earlier tests' garbage warns before this test starts
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with FaultInjector(site="durability.wal.apply", fail_at=fail_at) as injector:
            with pytest.raises(InjectedFault):
                ShardRouter.recover(durability, family="adaptive")
        gc.collect()
    assert injector.calls_by_site["durability.wal.apply"] == fail_at
    leaked = [w for w in caught if str(tmp_path) in str(w.message)]
    assert leaked == []
