"""One shard's durable identity: a WAL plus its snapshot generations.

A :class:`DurableLog` is the unit that the service attaches to each
shard.  Its lifecycle mirrors the shard's:

``create``
    fresh log for a new shard (bootstrap, or the build side of a
    split/merge): any stale same-id files are destroyed first, a base
    snapshot of the shard's starting pairs is published at LSN 0, and
    an empty WAL opens at LSN 1.

``recover``
    rebuild the shard's state after a crash: load the newest *valid*
    snapshot (falling back past corrupt generations), cut the WAL's
    torn tail if the crash interrupted a group commit, and replay
    every frame past the snapshot's LSN into a plain dict — the
    canonical pair set from which any index family can be rebuilt.

``checkpoint``
    publish a new snapshot at the WAL's current LSN, prune old
    generations, and truncate the WAL up to the *oldest retained*
    snapshot's LSN (so every surviving generation remains a viable
    fallback).

``seal``
    fence the log when its shard is retired by a split/merge — a
    racing writer that still holds the old routing table gets
    :class:`~repro.durability.wal.LogSealedError` instead of an
    acknowledgment that recovery would not honor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.durability.codec import CorruptSerializationError, Key
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import (
    OP_DELETE,
    OP_PUT,
    Record,
    WriteAheadLog,
    read_frames,
)
from repro.faults.injector import fault_point

Pair = Tuple[Key, int]


@dataclass(frozen=True)
class RecoveryResult:
    """What one log's recovery found and rebuilt."""

    log_id: str
    state: Dict[Key, int]
    snapshot_lsn: int
    last_lsn: int
    frames_replayed: int
    snapshots_skipped: int
    torn_bytes: int


class DurableLog:
    """The durable write path of one shard (WAL + snapshots)."""

    def __init__(self, log_id: str, wal: WriteAheadLog, snapshots: SnapshotStore) -> None:
        self.log_id = log_id
        self.wal = wal
        self.snapshots = snapshots

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        log_id: str,
        wal_dir: Path,
        snap_dir: Path,
        pairs: Sequence[Pair],
        sync: str = "batch",
        tear_rng: Optional[random.Random] = None,
    ) -> "DurableLog":
        """Fresh log seeded with a base snapshot of ``pairs`` at LSN 0.

        Any files left under this id by an aborted earlier split are
        destroyed first, so a reused id can never replay stale frames.
        """
        snapshots = SnapshotStore(snap_dir, log_id)
        snapshots.delete_files()
        wal_path = wal_dir / f"{log_id}.wal"
        snapshots.write(list(pairs), 0)
        wal = WriteAheadLog(wal_path, sync=sync, next_lsn=1, create=True, tear_rng=tear_rng)
        return cls(log_id, wal, snapshots)

    @classmethod
    def recover(
        cls,
        log_id: str,
        wal_dir: Path,
        snap_dir: Path,
        sync: str = "batch",
        tear_rng: Optional[random.Random] = None,
    ) -> Tuple["DurableLog", RecoveryResult]:
        """Rebuild state from disk; returns the reopened log and its result.

        Loads the newest valid snapshot, replays every intact WAL frame
        past its LSN (each behind the ``durability.wal.apply`` fault
        point, so campaigns can kill recovery itself), and cuts a torn
        final record off the file before reopening it for appends.  A
        fallback older than an :meth:`adopt` cannot replay across the
        LSNs it skipped, so it raises rather than serve a stale history.
        """
        snapshots = SnapshotStore(snap_dir, log_id)
        pairs, snapshot_lsn, skipped = snapshots.load_newest()
        state: Dict[Key, int] = dict(pairs)
        wal_path = wal_dir / f"{log_id}.wal"
        frames, tail = read_frames(wal_path)
        replayed = 0
        for frame in frames:
            if frame.lsn <= snapshot_lsn:
                continue
            if frame.lsn != snapshot_lsn + replayed + 1:
                raise CorruptSerializationError(
                    f"log {log_id}: snapshot at LSN {snapshot_lsn} cannot reach "
                    f"WAL frame {frame.lsn} (it adopted a sibling's LSN since)"
                )
            fault_point("durability.wal.apply")
            if frame.op == OP_PUT:
                assert frame.value is not None  # encode_frame enforces this
                state[frame.key] = frame.value
            else:
                state.pop(frame.key, None)
            replayed += 1
        last_lsn = max(snapshot_lsn, frames[-1].lsn if frames else 0)
        wal = WriteAheadLog(
            wal_path, sync=sync, next_lsn=last_lsn + 1, create=False, tear_rng=tear_rng
        )
        wal.drop_torn_tail(tail)
        result = RecoveryResult(
            log_id=log_id,
            state=state,
            snapshot_lsn=snapshot_lsn,
            last_lsn=last_lsn,
            frames_replayed=replayed,
            snapshots_skipped=skipped,
            torn_bytes=tail.torn_bytes,
        )
        return cls(log_id, wal, snapshots), result

    # ------------------------------------------------------------------
    # The write path (called under the shard's locks)
    # ------------------------------------------------------------------
    def append_put_many(self, pairs: Sequence[Pair]) -> Tuple[int, int]:
        """Group-commit a batch of upserts; returns ``(first_lsn, last_lsn)``."""
        records: List[Record] = [(OP_PUT, key, value) for key, value in pairs]
        return self.wal.append_batch(records)

    def append_put(self, key: Key, value: int) -> int:
        """Durably log one upsert; returns its LSN."""
        first, _last = self.wal.append_batch([(OP_PUT, key, value)])
        return first

    def append_delete(self, key: Key) -> int:
        """Durably log one delete; returns its LSN."""
        first, _last = self.wal.append_batch([(OP_DELETE, key, None)])
        return first

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, pairs: Sequence[Pair]) -> int:
        """Snapshot ``pairs`` at the current LSN and trim history.

        The caller must present the state as of the WAL's ``last_lsn``
        (the service holds the shard's gates while collecting it).
        Truncation is keyed to the *oldest retained* generation, so a
        corrupt-newest fallback always has its WAL tail.
        """
        lsn = self.wal.last_lsn
        self.snapshots.write(list(pairs), lsn)
        cutoff = self.snapshots.prune()
        if cutoff is not None and cutoff > 0:
            self.wal.truncate_upto(cutoff)
        return lsn

    def adopt(self, pairs: Sequence[Pair], lsn: int) -> int:
        """Checkpoint ``pairs`` copied from a sibling log that is at ``lsn``,
        taking its LSN too: copies that took the same writes keep equal
        LSNs, so recovery's highest-LSN vote never goes to a stale copy."""
        self.wal.skip_to(lsn)
        return self.checkpoint(pairs)

    # ------------------------------------------------------------------
    # Retirement and introspection
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """The highest LSN this log has handed out."""
        return self.wal.last_lsn

    @property
    def sealed(self) -> bool:
        """True once the shard was retired by a split/merge."""
        return self.wal.sealed

    def seal(self) -> None:
        """Fence the log against post-retirement acknowledgments."""
        self.wal.seal()

    def close(self) -> None:
        """Release file handles (idempotent)."""
        self.wal.close()

    def delete_files(self) -> None:
        """Destroy the WAL and every snapshot (after a split/merge commits)."""
        self.wal.delete_file()
        self.snapshots.delete_files()

    def wal_size_bytes(self) -> int:
        """Current WAL file size (drives checkpoint scheduling)."""
        return self.wal.size_bytes()

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe summary of this log."""
        return {
            "log_id": self.log_id,
            "last_lsn": self.wal.last_lsn,
            "sealed": self.wal.sealed,
            "poisoned": self.wal.poisoned,
            "wal_bytes": self.wal.size_bytes(),
            "snapshot_lsns": self.snapshots.list_lsns(),
            "sync": self.wal.sync,
        }
