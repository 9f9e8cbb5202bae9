"""End-to-end durability tests for the sharded service.

Build/recover equality, checkpointing, split/merge epoch re-keying, the
aborted-swap manifest rollback, and recovery under concurrent writers.
"""

import threading

import pytest

from repro.durability import DurabilityManager
from repro.faults import FaultInjector, InjectedFault
from repro.service import ShardRouter


def make_durability(tmp_path, sync="none"):
    return DurabilityManager(tmp_path / "store", sync=sync)


def make_router(tmp_path, num_keys=200, num_shards=2, **kwargs):
    pairs = [(key, key * 10) for key in range(num_keys)]
    return ShardRouter.build(
        pairs,
        family="olc",
        num_shards=num_shards,
        partitioning="range",
        durability=make_durability(tmp_path),
        **kwargs,
    )


def state_of(router):
    state = {}
    for shard in router.table.shards:
        state.update(shard.items())
    return state


class TestBuildAndRecover:
    def test_recover_equals_pre_crash_state(self, tmp_path):
        router = make_router(tmp_path)
        router.put_many([(key, key + 1) for key in range(300, 340)])
        router.delete(5)
        before = state_of(router)
        router.close()  # crash = close without checkpoint; WAL has the tail
        recovered = ShardRouter.recover(make_durability(tmp_path))
        recovered.verify()
        assert state_of(recovered) == before
        assert recovered.last_recovery["frames_replayed"] > 0
        assert recovered.last_recovery["epoch"] == 0
        recovered.close()

    @pytest.mark.parametrize(
        "shape",
        [{"family": "olc"}, {"family": "adaptive", "replication_factor": 2}],
        ids=["plain", "replicated"],
    )
    def test_wrong_typed_key_never_reaches_the_wal(self, tmp_path, shape):
        pairs = [(key, key * 10) for key in range(200)]
        durability = make_durability(tmp_path)
        router = ShardRouter.build(
            pairs, num_shards=2, durability=durability, **shape
        )
        router.put(500, 5)
        logs = [log for shard in router.table.shards for log in shard.logs()]
        lsns = [log.last_lsn for log in logs]
        before = state_of(router)
        with pytest.raises(TypeError):
            router.put(b"x", 1)
        # A good key in the bad key's own shard: the whole batch is refused.
        neighbour = next(
            key for key in range(501, 600) if router.shard_for(key) is router.shard_for(b"y")
        )
        with pytest.raises(TypeError):
            router.put_many([(neighbour, 1), (b"y", 2)])
        with pytest.raises(TypeError):
            router.delete(b"x")
        assert [log.last_lsn for log in logs] == lsns  # no record landed
        assert state_of(router) == before
        router.close()
        recovered = ShardRouter.recover(make_durability(tmp_path), family=shape["family"])
        recovered.verify()
        assert state_of(recovered) == before
        recovered.close()

    def test_build_publishes_manifest_before_serving(self, tmp_path):
        durability = make_durability(tmp_path)
        router = ShardRouter.build(
            [(1, 1), (2, 2)],
            num_shards=1,
            durability=durability,
        )
        manifest = durability.read_manifest()
        assert manifest.epoch == 0
        assert manifest.shards == [DurabilityManager.log_id(0, 0)]
        router.close()

    def test_durable_router_requires_logs_on_every_shard(self, tmp_path):
        plain = ShardRouter.build([(1, 1)], num_shards=1)
        with pytest.raises(ValueError):
            ShardRouter(
                plain.table.shards,
                plain.table.partitioner,
                plain._template,
                durability=make_durability(tmp_path),
            )
        plain.close()

    def test_checkpoint_requires_durability(self):
        router = ShardRouter.build([(1, 1)], num_shards=1)
        with pytest.raises(RuntimeError):
            router.checkpoint()
        router.close()


class TestCheckpoint:
    def test_checkpoint_truncates_and_recovery_skips_replay(self, tmp_path):
        router = make_router(tmp_path)
        router.put_many([(key, 7) for key in range(500, 560)])
        router.checkpoint()
        summary = router.checkpoint()  # second one makes truncation kick in
        assert router.checkpoints == 2
        # Shards that saw writes checkpoint at a positive LSN; an
        # untouched shard legitimately checkpoints at its base LSN 0.
        assert any(entry["lsn"] > 0 for entry in summary["shards"])
        assert all(entry["lsn"] >= 0 for entry in summary["shards"])
        before = state_of(router)
        router.close()
        recovered = ShardRouter.recover(make_durability(tmp_path))
        assert state_of(recovered) == before
        assert recovered.last_recovery["frames_replayed"] == 0
        recovered.close()

    def test_writes_after_checkpoint_survive(self, tmp_path):
        router = make_router(tmp_path)
        router.checkpoint()
        router.put(999, 12345)
        router.close()
        recovered = ShardRouter.recover(make_durability(tmp_path))
        assert recovered.get(999) == 12345
        recovered.close()


class TestEpochReKeying:
    def test_split_bumps_epoch_and_recovers(self, tmp_path):
        router = make_router(tmp_path)
        router.split_shard(0)
        assert router.stats()["epoch"] == 1
        router.put_many([(key, 3) for key in range(600, 630)])
        before = state_of(router)
        num_shards = router.num_shards
        router.close()
        recovered = ShardRouter.recover(make_durability(tmp_path))
        recovered.verify()
        assert recovered.num_shards == num_shards
        assert recovered.stats()["epoch"] == 1
        assert state_of(recovered) == before
        recovered.close()

    def test_merge_bumps_epoch_and_recovers(self, tmp_path):
        router = make_router(tmp_path)
        router.merge_shards(0)
        router.put(777, 1)
        before = state_of(router)
        router.close()
        recovered = ShardRouter.recover(make_durability(tmp_path))
        recovered.verify()
        assert recovered.num_shards == 1
        assert state_of(recovered) == before
        recovered.close()

    def test_old_epoch_logs_are_destroyed_after_split(self, tmp_path):
        durability = make_durability(tmp_path)
        router = ShardRouter.build(
            [(key, key) for key in range(100)],
            num_shards=1,
            partitioning="range",
            durability=durability,
        )
        router.split_shard(0)
        router.close()
        old_id = DurabilityManager.log_id(0, 0)
        assert not (durability.wal_dir / f"{old_id}.wal").exists()
        assert not list(durability.snap_dir.glob(f"{old_id}.*"))

    def test_aborted_split_rolls_back_manifest(self, tmp_path):
        durability = make_durability(tmp_path)
        router = ShardRouter.build(
            [(key, key) for key in range(100)],
            num_shards=1,
            partitioning="range",
            durability=durability,
        )
        with FaultInjector(site="service.split.swap", fail_at=1):
            with pytest.raises(InjectedFault):
                router.split_shard(0)
        # Manifest, in-memory epoch, and routing all still name epoch 0.
        assert durability.read_manifest().epoch == 0
        assert router.stats()["epoch"] == 0
        assert router.num_shards == 1
        epoch1_id = DurabilityManager.log_id(1, 0)
        assert not (durability.wal_dir / f"{epoch1_id}.wal").exists()
        # The router still serves and remains durable.
        router.put(555, 5)
        before = state_of(router)
        router.close()
        recovered = ShardRouter.recover(make_durability(tmp_path))
        assert state_of(recovered) == before
        recovered.close()

    def test_aborted_manifest_publish_keeps_old_epoch_serving(self, tmp_path):
        durability = make_durability(tmp_path)
        pairs = [(key, key * 10) for key in range(100)]
        router = ShardRouter.build(
            pairs,
            family="olc",
            num_shards=2,
            partitioning="range",
            durability=durability,
        )
        with FaultInjector(site="durability.manifest.swap", fail_at=1):
            with pytest.raises(InjectedFault):
                router.split_shard(0)
        assert router.num_shards == 2
        # The next-epoch logs built aside for the failed publish must not
        # linger on disk: no manifest reaches them, so they would leak
        # until a recovery orphan sweep (or collide with a reused id).
        for position in range(3):
            epoch1_id = DurabilityManager.log_id(1, position)
            assert not (durability.wal_dir / f"{epoch1_id}.wal").exists()
            assert not list(durability.snap_dir.glob(f"{epoch1_id}.*"))
        router.put(901, 9)
        before = state_of(router)
        router.close()
        recovered = ShardRouter.recover(make_durability(tmp_path))
        assert state_of(recovered) == before
        recovered.close()


class TestConcurrentDurability:
    def test_writers_during_split_lose_nothing_across_recovery(self, tmp_path):
        pairs = [(key, 0) for key in range(0, 2000, 2)]
        router = ShardRouter.build(
            pairs,
            family="olc",
            num_shards=2,
            partitioning="range",
            durability=make_durability(tmp_path),
        )
        errors = []

        def writer(lo, hi):
            try:
                for key in range(lo, hi):
                    router.put(key, key + 1)
            except Exception as exc:  # pragma: no cover - failure surface
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(1, 500, )),
            threading.Thread(target=writer, args=(1001, 1500)),
        ]
        for thread in threads:
            thread.start()
        router.split_shard(router.num_shards - 1)
        router.checkpoint()
        for thread in threads:
            thread.join()
        assert not errors
        before = state_of(router)
        router.verify()
        router.close()
        recovered = ShardRouter.recover(make_durability(tmp_path))
        recovered.verify()
        after = state_of(recovered)
        recovered.close()
        assert after == before
        for key in range(1, 500):
            assert after[key] == key + 1
