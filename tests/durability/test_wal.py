"""Tests for the per-shard write-ahead log."""

import random
import struct

import pytest

from repro.durability.codec import CorruptSerializationError
from repro.durability.wal import (
    OP_DELETE,
    OP_PUT,
    LogSealedError,
    WalPoisonedError,
    WriteAheadLog,
    encode_frame,
    read_frames,
)
from repro.faults import FaultInjector, InjectedFault
from repro.obs import Telemetry


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "shard.wal"


class TestAppendAndRead:
    def test_roundtrip_puts_and_deletes(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        first, last = wal.append_batch(
            [(OP_PUT, 1, 10), (OP_PUT, b"key", -5), (OP_DELETE, 2, None)]
        )
        wal.close()
        assert (first, last) == (1, 3)
        frames, tail = read_frames(wal_path)
        assert [(f.lsn, f.op, f.key, f.value) for f in frames] == [
            (1, OP_PUT, 1, 10),
            (2, OP_PUT, b"key", -5),
            (3, OP_DELETE, 2, None),
        ]
        assert not tail.torn
        assert tail.reason is None

    def test_lsns_are_consecutive_across_batches(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="batch", create=True)
        assert wal.append_batch([(OP_PUT, 1, 1)]) == (1, 1)
        assert wal.append_batch([(OP_PUT, 2, 2), (OP_PUT, 3, 3)]) == (2, 3)
        assert wal.last_lsn == 3
        wal.close()

    def test_reopen_continues_from_next_lsn(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.append_batch([(OP_PUT, 1, 1)])
        wal.close()
        reopened = WriteAheadLog(wal_path, sync="none", next_lsn=2)
        reopened.append_batch([(OP_PUT, 2, 2)])
        reopened.close()
        frames, _ = read_frames(wal_path)
        assert [frame.lsn for frame in frames] == [1, 2]

    def test_missing_file_reads_empty(self, tmp_path):
        frames, tail = read_frames(tmp_path / "never-written.wal")
        assert frames == [] and not tail.torn

    def test_empty_batch_rejected(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        with pytest.raises(ValueError):
            wal.append_batch([])
        wal.close()


class TestTornTail:
    def test_truncated_final_frame_is_skipped_not_raised(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.append_batch([(OP_PUT, key, key) for key in range(5)])
        wal.close()
        blob = wal_path.read_bytes()
        wal_path.write_bytes(blob[:-3])  # tear the last frame
        frames, tail = read_frames(wal_path)
        assert len(frames) == 4
        assert tail.torn and tail.torn_bytes > 0
        assert "truncated" in tail.reason

    def test_crc_flip_stops_parsing_at_that_frame(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.append_batch([(OP_PUT, key, key) for key in range(3)])
        wal.close()
        blob = bytearray(wal_path.read_bytes())
        blob[-1] ^= 0xFF
        wal_path.write_bytes(bytes(blob))
        frames, tail = read_frames(wal_path)
        assert len(frames) == 2
        assert "checksum" in tail.reason

    def test_non_monotonic_lsn_is_corruption(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.append_batch([(OP_PUT, 1, 1)])
        wal.close()
        with open(wal_path, "ab") as handle:
            handle.write(encode_frame(1, OP_PUT, 2, 2))  # repeats LSN 1
        frames, tail = read_frames(wal_path)
        assert len(frames) == 1
        assert "does not advance" in tail.reason

    def test_bad_magic_raises(self, wal_path):
        wal_path.write_bytes(b"NOPE" + struct.pack("<I", 1))
        with pytest.raises(CorruptSerializationError):
            read_frames(wal_path)

    def test_tear_inside_file_header_rewrites_fresh_log(self, wal_path):
        # A crash between file creation and the header write leaves
        # fewer than 8 bytes; zero-padding to header size would
        # fabricate bad magic, so drop_torn_tail must rebuild the file.
        wal_path.write_bytes(b"RW")
        frames, tail = read_frames(wal_path)
        assert frames == [] and tail.torn and tail.valid_bytes == 0
        wal = WriteAheadLog(wal_path, sync="none", next_lsn=1)
        wal.drop_torn_tail(tail)
        wal.append_batch([(OP_PUT, 1, 1)])
        wal.close()
        frames, tail = read_frames(wal_path)
        assert [(f.lsn, f.key) for f in frames] == [(1, 1)]
        assert not tail.torn

    def test_drop_torn_tail_restores_appendability(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.append_batch([(OP_PUT, 1, 1), (OP_PUT, 2, 2)])
        wal.close()
        wal_path.write_bytes(wal_path.read_bytes()[:-5])
        frames, tail = read_frames(wal_path)
        with Telemetry() as telemetry:
            reopened = WriteAheadLog(wal_path, sync="none", next_lsn=frames[-1].lsn + 1)
            reopened.drop_torn_tail(tail)
            reopened.append_batch([(OP_PUT, 3, 3)])
            reopened.close()
            assert telemetry.registry.counter("durability.wal.torn_tails").value == 1
        frames, tail = read_frames(wal_path)
        assert [frame.lsn for frame in frames] == [1, 2]
        assert frames[-1].key == 3
        assert not tail.torn


class TestTruncation:
    def test_truncate_upto_drops_prefix(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.append_batch([(OP_PUT, key, key) for key in range(6)])
        kept = wal.truncate_upto(4)
        assert kept == 2
        wal.append_batch([(OP_PUT, 100, 100)])
        wal.close()
        frames, _ = read_frames(wal_path)
        assert [frame.lsn for frame in frames] == [5, 6, 7]

    def test_truncate_fault_leaves_old_log_intact(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.append_batch([(OP_PUT, key, key) for key in range(4)])
        with FaultInjector(site="durability.wal.truncate", fail_at=1):
            with pytest.raises(InjectedFault):
                wal.truncate_upto(2)
        frames, _ = read_frames(wal_path)
        assert [frame.lsn for frame in frames] == [1, 2, 3, 4]
        assert not list(wal_path.parent.glob("*.tmp"))
        wal.append_batch([(OP_PUT, 9, 9)])  # handle still usable
        wal.close()

    def test_aborted_truncation_does_not_leak_descriptors(self, wal_path):
        import os

        def open_fds_for(path):
            fd_dir = "/proc/self/fd"
            count = 0
            for name in os.listdir(fd_dir):
                try:
                    if os.readlink(f"{fd_dir}/{name}") == str(path):
                        count += 1
                except OSError:
                    continue
            return count

        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.append_batch([(OP_PUT, key, key) for key in range(4)])
        baseline = open_fds_for(wal_path)
        for attempt in range(1, 4):
            with FaultInjector(site="durability.wal.truncate", fail_at=1):
                with pytest.raises(InjectedFault):
                    wal.truncate_upto(2)
            assert open_fds_for(wal_path) == baseline
        wal.append_batch([(OP_PUT, 9, 9)])
        wal.close()


class TestSealAndFaults:
    def test_sealed_log_refuses_appends(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        wal.seal()
        with pytest.raises(LogSealedError):
            wal.append_batch([(OP_PUT, 1, 1)])
        wal.close()

    def test_append_fault_before_write_lands_nothing(self, wal_path):
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        with FaultInjector(site="durability.wal.append", fail_at=1):
            with pytest.raises(InjectedFault):
                wal.append_batch([(OP_PUT, 1, 1)])
        wal.close()
        frames, tail = read_frames(wal_path)
        assert frames == [] and not tail.torn

    def test_failed_append_poisons_the_log(self, wal_path):
        # After a torn append the file may hold mid-file garbage that
        # read_frames stops at; acknowledging anything appended past it
        # would be a lost write on recovery, so the log must fence.
        wal = WriteAheadLog(
            wal_path, sync="none", create=True, tear_rng=random.Random(3)
        )
        wal.append_batch([(OP_PUT, 1, 1)])
        with Telemetry() as telemetry:
            with FaultInjector(site="durability.wal.append", fail_at=1):
                with pytest.raises(InjectedFault):
                    wal.append_batch([(OP_PUT, key, key) for key in range(2, 30)])
            assert telemetry.registry.counter("durability.wal.poisoned").value == 1
        assert wal.poisoned is not None
        with pytest.raises(WalPoisonedError):
            wal.append_batch([(OP_PUT, 99, 99)])
        with pytest.raises(WalPoisonedError):
            wal.truncate_upto(1)
        wal.close()
        # Recovery path: drop the torn tail and re-open a fresh instance.
        frames, tail = read_frames(wal_path)
        recovered = WriteAheadLog(
            wal_path, sync="none", next_lsn=(frames[-1].lsn if frames else 0) + 1
        )
        recovered.drop_torn_tail(tail)
        recovered.append_batch([(OP_PUT, 99, 99)])  # fence lifted
        recovered.close()
        frames, tail = read_frames(wal_path)
        assert frames[-1].key == 99 and not tail.torn

    def test_poisoning_without_tear_rng_still_fences(self, wal_path, monkeypatch):
        # Production shape: a failed write() cannot prove how much of
        # the batch landed, so even a faulted-before-write append fences.
        wal = WriteAheadLog(wal_path, sync="none", create=True)
        with FaultInjector(site="durability.wal.append", fail_at=1):
            with pytest.raises(InjectedFault):
                wal.append_batch([(OP_PUT, 1, 1)])
        with pytest.raises(WalPoisonedError):
            wal.append_batch([(OP_PUT, 2, 2)])
        wal.close()
        # A real write/fsync error fences too: re-raising alone would let
        # the next append be acknowledged after whatever half landed.
        wal = WriteAheadLog(wal_path.with_name("synced.wal"), sync="batch", create=True)

        def failing_fsync(fd):
            raise OSError("device error")

        with monkeypatch.context() as patch:
            patch.setattr("repro.durability.wal.os.fsync", failing_fsync)
            with pytest.raises(OSError, match="device error"):
                wal.append_batch([(OP_PUT, 1, 1)])
        assert wal.poisoned is not None
        with pytest.raises(WalPoisonedError):
            wal.append_batch([(OP_PUT, 2, 2)])
        wal.close()

    def test_tear_rng_writes_partial_prefix_on_fault(self, wal_path):
        wal = WriteAheadLog(
            wal_path, sync="none", create=True, tear_rng=random.Random(11)
        )
        wal.append_batch([(OP_PUT, 1, 1)])
        clean_size = wal.size_bytes()
        with FaultInjector(site="durability.wal.append", fail_at=1):
            with pytest.raises(InjectedFault):
                wal.append_batch([(OP_PUT, key, key) for key in range(2, 40)])
        wal.close()
        torn_size = wal_path.stat().st_size
        assert torn_size >= clean_size  # a (possibly empty) prefix was written
        # A torn batch may legally surface a *prefix* of complete frames
        # (they were on disk before the crash, just never acknowledged);
        # what it can never do is reorder, skip, or corrupt frames.
        frames, _tail = read_frames(wal_path)
        assert [frame.lsn for frame in frames] == list(range(1, len(frames) + 1))
        assert frames[0].key == 1
        assert len(frames) <= 1 + 38  # never more than the attempted batch
