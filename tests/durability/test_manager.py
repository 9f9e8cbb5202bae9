"""Tests for the durability root: manifest, partitioner specs, orphans."""

import pytest

from repro.durability import DurabilityManager, Manifest, build_partitioner, partitioner_spec
from repro.durability.codec import CorruptSerializationError
from repro.faults import FaultInjector, InjectedFault
from repro.service.partition import HashPartitioner, RangePartitioner


@pytest.fixture
def manager(tmp_path):
    return DurabilityManager(tmp_path / "store", sync="none")


class TestManifest:
    def test_roundtrip(self, manager):
        manifest = Manifest(
            epoch=3,
            partitioner={"kind": "hash", "num_shards": 4},
            shards=[DurabilityManager.log_id(3, i) for i in range(4)],
        )
        manager.publish_manifest(manifest)
        assert manager.read_manifest() == manifest
        assert manager.has_manifest()

    def test_missing_manifest_raises_file_not_found(self, manager):
        assert not manager.has_manifest()
        with pytest.raises(FileNotFoundError):
            manager.read_manifest()

    def test_corrupt_manifest_rejected(self, manager):
        manager.publish_manifest(
            Manifest(epoch=0, partitioner={"kind": "hash", "num_shards": 1}, shards=["a"])
        )
        text = manager.manifest_path.read_text().replace('"epoch": 0', '"epoch": 9')
        manager.manifest_path.write_text(text)
        with pytest.raises(CorruptSerializationError):
            manager.read_manifest()

    def test_swap_fault_keeps_previous_manifest(self, manager):
        old = Manifest(epoch=0, partitioner={"kind": "hash", "num_shards": 1}, shards=["a"])
        manager.publish_manifest(old)
        new = Manifest(epoch=1, partitioner={"kind": "hash", "num_shards": 2}, shards=["a", "b"])
        with FaultInjector(site="durability.manifest.swap", fail_at=1):
            with pytest.raises(InjectedFault):
                manager.publish_manifest(new)
        assert manager.read_manifest() == old
        assert not list(manager.root.glob("*.tmp"))

    def test_allow_fault_false_bypasses_injection(self, manager):
        manifest = Manifest(epoch=0, partitioner={"kind": "hash", "num_shards": 1}, shards=["a"])
        with FaultInjector(site="durability.manifest.swap", fail_at=1):
            manager.publish_manifest(manifest, allow_fault=False)  # must not raise
        assert manager.read_manifest() == manifest


class TestPartitionerSpecs:
    def test_hash_roundtrip(self):
        rebuilt = build_partitioner(partitioner_spec(HashPartitioner(8)))
        assert isinstance(rebuilt, HashPartitioner)
        assert rebuilt.num_shards == 8

    def test_range_int_roundtrip(self):
        original = RangePartitioner([100, 2**70])
        rebuilt = build_partitioner(partitioner_spec(original))
        assert isinstance(rebuilt, RangePartitioner)
        assert list(rebuilt.boundaries) == [100, 2**70]

    def test_range_bytes_roundtrip(self):
        original = RangePartitioner([b"dog", b"mouse"])
        rebuilt = build_partitioner(partitioner_spec(original))
        assert list(rebuilt.boundaries) == [b"dog", b"mouse"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(CorruptSerializationError):
            build_partitioner({"kind": "alien"})


class TestOrphanSweep:
    def test_unreferenced_files_are_removed(self, manager):
        kept = manager.create_log("e00000000-p0000", [(1, 1)])
        kept.close()
        orphan = manager.create_log("e00000001-p0000", [(2, 2)])
        orphan.close()
        (manager.wal_dir / "stray.wal.123.tmp").write_bytes(b"x")
        (manager.snap_dir / "stray.snap.456.tmp").write_bytes(b"x")
        manifest = Manifest(
            epoch=0,
            partitioner={"kind": "hash", "num_shards": 1},
            shards=["e00000000-p0000"],
        )
        removed = manager.cleanup_orphans(manifest)
        assert removed == 4  # orphan wal + orphan snap + two temp files
        assert (manager.wal_dir / "e00000000-p0000.wal").exists()
        assert not (manager.wal_dir / "e00000001-p0000.wal").exists()
        assert not list(manager.snap_dir.glob("e00000001-p0000.*"))
        assert not list(manager.wal_dir.glob("*.tmp"))

    def test_create_log_destroys_stale_same_id_files(self, manager):
        first = manager.create_log("e00000000-p0000", [(1, 1), (2, 2)])
        first.append_put(3, 3)
        first.checkpoint([(1, 1), (2, 2), (3, 3)])
        first.close()
        fresh = manager.create_log("e00000000-p0000", [(9, 9)])
        fresh.close()
        reopened, result = manager.recover_log("e00000000-p0000")
        reopened.close()
        assert result.state == {9: 9}  # no stale frames or snapshots replayed
