"""Replication through the service, tenancy, and network layers."""

import asyncio

import pytest

from repro.durability.manager import DurabilityManager
from repro.faults.injector import FaultInjector, InjectedFault
from repro.net import NetClient, NetServer
from repro.net.tenancy import TenantDirectory, TenantSpec
from repro.service.router import ShardRouter


def make_pairs(num_keys=300):
    return [(key, key + 1) for key in range(0, num_keys * 2, 2)]


class TestRouterWiring:
    def test_replication_requires_adaptive_family(self):
        with pytest.raises(ValueError, match="adaptive"):
            ShardRouter.build(make_pairs(), family="olc", replication_factor=3)

    def test_factor_inferred_from_profiles(self):
        router = ShardRouter.build(
            make_pairs(), family="adaptive", replica_profiles=["point", "scan"]
        )
        assert router.table.shards[0].stats()["replication_factor"] == 2
        router.close()

    def test_routed_reads_serve_through_replicas(self):
        router = ShardRouter.build(
            make_pairs(400), family="adaptive", num_shards=2, replication_factor=3
        )
        keys = list(range(0, 200, 2))
        assert router.get_many(keys) == [key + 1 for key in keys]
        routed = sum(
            row["reads_routed"]
            for shard in router.stats()["shards"]
            for row in shard["replicas"]
        )
        assert routed == len(keys)
        router.close()


class TestRequestFaultsLeaveReplicasUp:
    """A request every live replica refuses is the request's fault."""

    @pytest.fixture
    def router(self):
        with ShardRouter.build(
            make_pairs(), family="adaptive", num_shards=2, replication_factor=2
        ) as router:
            yield router

    def assert_all_up_and_serving(self, router):
        for shard in router.table.shards:
            assert [replica.down for replica in shard.replicas] == [False, False]
        assert router.get_many([10, 12]) == [11, 13]

    def test_wrong_typed_read_raises_like_a_plain_shard(self, router):
        with pytest.raises(TypeError):
            router.get_many([b"abc"])
        self.assert_all_up_and_serving(router)

    def test_wrong_typed_write_raises_like_a_plain_shard(self, router):
        with pytest.raises(TypeError):
            router.put_many([(b"x", 1)])
        self.assert_all_up_and_serving(router)
        router.put_many([(11, 110)])
        assert router.get(11) == 110


class TestReplicatedReshape:
    """Split/merge through the one shard lifecycle, at replication factor 2."""

    PROFILES = ["scan", "balanced"]

    def build(self, durability=None):
        return ShardRouter.build(
            make_pairs(),
            family="adaptive",
            num_shards=2,
            partitioning="range",
            replica_profiles=self.PROFILES,
            durability=durability,
        )

    def assert_shape(self, router, num_shards):
        assert router.num_shards == num_shards
        for shard in router.table.shards:
            assert [replica.profile.name for replica in shard.replicas] == self.PROFILES
            assert not any(replica.down for replica in shard.replicas)
        assert router.scan(-1, 10**6) == make_pairs()
        router.verify()

    def test_split_then_merge_in_memory(self):
        with self.build() as router:
            router.split_shard(0)
            self.assert_shape(router, 3)
            router.merge_shards(1)
            self.assert_shape(router, 2)

    def test_split_then_merge_durable_and_recoverable(self, tmp_path):
        durability = DurabilityManager(tmp_path)
        router = self.build(durability)
        router.split_shard(0)
        self.assert_shape(router, 3)
        manifest = durability.read_manifest()
        assert manifest.epoch == 1
        assert manifest.replicas["profiles"] == self.PROFILES
        logs = manifest.replicas["logs"]
        assert logs[0] == ["e00000001-p0000-r00", "e00000001-p0000-r01"]
        assert logs[2] == ["e00000000-p0001-r00", "e00000000-p0001-r01"]
        router.merge_shards(1)
        self.assert_shape(router, 2)
        router.put_many([(1, 100), (599, 600)])
        router.close()
        manifest = durability.read_manifest()
        assert manifest.epoch == 2 and len(manifest.replicas["logs"]) == 2
        recovered = ShardRouter.recover(DurabilityManager(tmp_path), family="adaptive")
        try:
            assert recovered.get_many([1, 599, 10]) == [100, 600, 11]
            assert len(recovered) == len(make_pairs()) + 2
            assert recovered.last_recovery["epoch"] == 2
            recovered.verify()
        finally:
            recovered.close()

    @pytest.mark.parametrize("site", ["service.split.swap", "service.merge.swap"])
    def test_swap_fault_republishes_old_manifest_with_replica_block(
        self, tmp_path, site
    ):
        durability = DurabilityManager(tmp_path)
        router = self.build(durability)
        before = durability.read_manifest()
        try:
            with pytest.raises(InjectedFault), FaultInjector(site=site, fail_at=1):
                if "split" in site:
                    router.split_shard(0)
                else:
                    router.merge_shards(0)
            self.assert_shape(router, 2)
            assert durability.read_manifest() == before
            assert before.replicas is not None
            on_disk = [*durability.wal_dir.iterdir(), *durability.snap_dir.iterdir()]
            assert not [p.name for p in on_disk if p.name.startswith("e00000001")]
            router.put(1, 100)  # the old logs still take writes
        finally:
            router.close()
        recovered = ShardRouter.recover(DurabilityManager(tmp_path), family="adaptive")
        try:
            assert recovered.get(1) == 100
            assert recovered.last_recovery["orphans_removed"] == 0
        finally:
            recovered.close()

    def test_split_heals_a_down_replica(self):
        with self.build() as router:
            shard = router.table.shards[0]
            shard.mark_down(shard.replicas[1], "operator")
            router.put(1, 100)
            assert shard.replicas[1].behind == 1
            router.split_shard(0)
            for successor in router.table.shards[:2]:
                healed, other = successor.replicas
                assert healed.items() == other.items()
                assert not healed.down and not other.down
            assert router.get(1) == 100
            router.verify()


class TestTenancy:
    def test_replicated_tenant_group(self):
        directory = TenantDirectory(
            [
                TenantSpec(
                    name="acme",
                    num_shards=2,
                    family="adaptive",
                    pairs=make_pairs(),
                    replication_factor=3,
                ),
                TenantSpec(name="smol", num_shards=1, pairs=make_pairs(50)),
            ]
        )
        try:
            router = directory.router_for("acme")
            assert router.get(10) == 11
            stats = router.stats()["shards"][0]
            assert stats["replication_factor"] == 3
        finally:
            directory.close()

    def test_bad_replication_factor_rejected(self):
        with pytest.raises(ValueError, match="replication_factor"):
            TenantSpec(name="acme", replication_factor=0)


class TestStatsOpcode:
    def test_stats_exposes_replica_state_over_the_wire(self):
        async def scenario():
            directory = TenantDirectory(
                [
                    TenantSpec(
                        name="acme",
                        num_shards=1,
                        family="adaptive",
                        pairs=make_pairs(),
                        replication_factor=3,
                    )
                ]
            )
            try:
                async with (
                    NetServer(directory) as server,
                    await NetClient.connect("127.0.0.1", server.port) as client,
                ):
                    assert await client.get("acme", 10) == 11
                    stats = await client.stats()
                    (shard,) = stats["shards"]["acme"]
                    assert shard["replication_factor"] == 3
                    profiles = [row["profile"] for row in shard["replicas"]]
                    assert profiles == ["point", "scan", "balanced"]
                    for row in shard["replicas"]:
                        assert "encoding_census" in row
                        assert "reads_routed" in row
            finally:
                directory.close()

        asyncio.run(scenario())
