"""Tests for snapshot generations and corrupt-newest fallback."""

import pytest

from repro.durability.codec import CorruptSerializationError
from repro.durability.snapshot import SnapshotStore, decode_snapshot, encode_snapshot
from repro.faults import FaultInjector, InjectedFault
from repro.obs import Telemetry


@pytest.fixture
def store(tmp_path):
    return SnapshotStore(tmp_path, "e00000000-p0000")


class TestBlobFormat:
    def test_roundtrip(self):
        pairs = [(1, 10), (b"key", -3), (2**80, 5)]
        decoded, lsn = decode_snapshot(encode_snapshot(pairs, 42))
        assert decoded == pairs
        assert lsn == 42

    def test_empty_snapshot(self):
        decoded, lsn = decode_snapshot(encode_snapshot([], 0))
        assert decoded == [] and lsn == 0

    def test_single_bit_flip_is_rejected(self):
        blob = bytearray(encode_snapshot([(1, 10), (2, 20)], 7))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(CorruptSerializationError):
            decode_snapshot(bytes(blob))

    def test_truncation_is_rejected(self):
        blob = encode_snapshot([(1, 10)], 1)
        with pytest.raises(CorruptSerializationError):
            decode_snapshot(blob[:-2])


class TestStoreLifecycle:
    def test_write_then_load_newest(self, store):
        store.write([(1, 1)], 5)
        store.write([(1, 1), (2, 2)], 9)
        pairs, lsn, skipped = store.load_newest()
        assert pairs == [(1, 1), (2, 2)]
        assert lsn == 9 and skipped == 0
        assert store.list_lsns() == [5, 9]

    def test_prune_returns_truncation_cutoff(self, store):
        for lsn in (3, 6, 9):
            store.write([(lsn, lsn)], lsn)
        cutoff = store.prune()
        assert cutoff == 6  # oldest *retained* generation
        assert store.list_lsns() == [6, 9]

    def test_prune_below_retention_keeps_everything(self, store):
        store.write([], 4)
        assert store.prune() == 4
        assert store.list_lsns() == [4]

    def test_load_with_no_snapshots_raises(self, store):
        with pytest.raises(CorruptSerializationError):
            store.load_newest()

    def test_swap_fault_leaves_previous_generation_and_no_temp(self, store, tmp_path):
        store.write([(1, 1)], 2)
        with FaultInjector(site="durability.snapshot.swap", fail_at=1):
            with pytest.raises(InjectedFault):
                store.write([(1, 1), (2, 2)], 8)
        pairs, lsn, _ = store.load_newest()
        assert pairs == [(1, 1)] and lsn == 2
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruptNewestFallback:
    def test_falls_back_to_previous_generation_with_counter(self, store, tmp_path):
        store.write([(1, 1)], 3)
        store.write([(1, 1), (2, 2)], 7)
        newest = tmp_path / "e00000000-p0000.00000000000000000007.snap"
        blob = bytearray(newest.read_bytes())
        blob[-1] ^= 0xFF
        newest.write_bytes(bytes(blob))
        with Telemetry() as telemetry:
            pairs, lsn, skipped = store.load_newest()
            assert (
                telemetry.registry.counter("durability.snapshot.corrupt_skipped").value
                == 1
            )
        assert pairs == [(1, 1)]
        assert lsn == 3 and skipped == 1

    def test_all_generations_corrupt_raises(self, store, tmp_path):
        store.write([(1, 1)], 3)
        for path in tmp_path.glob("*.snap"):
            path.write_bytes(b"garbage")
        with pytest.raises(CorruptSerializationError):
            store.load_newest()
