"""Checkpoint snapshots: canonical key/value dumps, published atomically.

A snapshot is the *materialized* state of one shard log at a known LSN
— a canonical sorted key/value dump that works for every index family,
because families differ in structure but all reduce to the same pair
set (the PR-1 migration invariant).  Format:

.. code-block:: text

    file   := header record*
    header := magic "RSNP" (4) || version u32 || crc u32
              || lsn u64 || count u64                      -- 28 bytes
    record := key || value                                 -- codec.py

The CRC is computed over the whole file with the CRC field zeroed, so a
flipped byte anywhere — header or records — invalidates the snapshot as
a unit; records decode in ``codec.py``'s bounds-check-then-raise
discipline.

Snapshots are written build-aside and published with one ``os.replace``
behind the ``durability.snapshot.swap`` fault point; the store retains
the newest :data:`RETAINED_GENERATIONS` so that a snapshot corrupted *after*
publication (bit rot, operator error) degrades to the previous
generation plus a longer WAL replay — never to data loss, because the
WAL is only truncated up to the *oldest retained* snapshot's LSN.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.core.atomicio import discard_aside, publish_aside, write_aside
from repro.durability.codec import (
    CorruptSerializationError,
    Key,
    decode_key,
    decode_value,
    encode_key,
    encode_value,
)
from repro.faults.injector import fault_point
from repro.obs.runtime import active_registry

SNAPSHOT_MAGIC = b"RSNP"
#: Snapshot generations kept per log: the newest plus one fallback.
RETAINED_GENERATIONS = 2
SNAPSHOT_VERSION = 1

_HEADER = struct.Struct("<4sIIQQ")

#: RA004: literal instrument names.
_COUNTERS = {
    "writes": "durability.snapshot.writes",
    "bytes": "durability.snapshot.bytes",
    "loads": "durability.snapshot.loads",
    "corrupt_skipped": "durability.snapshot.corrupt_skipped",
    "pruned": "durability.snapshot.pruned",
}

Pair = Tuple[Key, int]


def encode_snapshot(pairs: Sequence[Pair], lsn: int) -> bytes:
    """The full snapshot blob for ``pairs`` as of ``lsn``."""
    body = b"".join(encode_key(key) + encode_value(value) for key, value in pairs)
    zero_header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0, lsn, len(pairs))
    crc = zlib.crc32(body, zlib.crc32(zero_header)) & 0xFFFFFFFF
    return _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, crc, lsn, len(pairs)) + body


def decode_snapshot(blob: bytes) -> Tuple[List[Pair], int]:
    """``(pairs, lsn)`` from a snapshot blob; raises on any corruption."""
    if len(blob) < _HEADER.size:
        raise CorruptSerializationError(f"snapshot of {len(blob)} bytes is shorter than its header")
    magic, version, crc, lsn, count = _HEADER.unpack_from(blob, 0)
    if magic != SNAPSHOT_MAGIC:
        raise CorruptSerializationError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise CorruptSerializationError(f"unsupported snapshot version {version}")
    zero_header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0, lsn, count)
    body = blob[_HEADER.size :]
    if zlib.crc32(body, zlib.crc32(zero_header)) & 0xFFFFFFFF != crc:
        raise CorruptSerializationError("snapshot checksum mismatch")
    pairs: List[Pair] = []
    offset = _HEADER.size
    for _ in range(count):
        key, offset = decode_key(blob, offset)
        value, offset = decode_value(blob, offset)
        pairs.append((key, value))
    if offset != len(blob):
        raise CorruptSerializationError(f"{len(blob) - offset} trailing bytes after snapshot records")
    return pairs, lsn


class SnapshotStore:
    """The snapshot generations of one shard log, newest-first.

    Files are named ``{log_id}.{lsn:020d}.snap`` so lexical order is
    LSN order; the store never holds open handles, so it is safe to
    share across checkpoint and recovery code paths.
    """

    def __init__(self, directory: Path, log_id: str) -> None:
        self.directory = directory
        self.log_id = log_id

    def _path_for(self, lsn: int) -> Path:
        return self.directory / f"{self.log_id}.{lsn:020d}.snap"

    def list_lsns(self) -> List[int]:
        """LSNs of every snapshot file present, ascending."""
        lsns = []
        for path in self.directory.glob(f"{self.log_id}.*.snap"):
            parts = path.name.split(".")
            if len(parts) == 3 and parts[1].isdigit():
                lsns.append(int(parts[1]))
        return sorted(lsns)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def write(self, pairs: Sequence[Pair], lsn: int) -> Path:
        """Publish a snapshot of ``pairs`` as of ``lsn``; returns its path.

        The blob is built aside in full and swapped in with one
        ``os.replace`` behind the ``durability.snapshot.swap`` fault
        point — a crash at the point leaves the previous generations
        untouched and only an unpublished temp file (which recovery's
        orphan sweep removes).
        """
        blob = encode_snapshot(pairs, lsn)
        final = self._path_for(lsn)
        tmp = write_aside(final, blob)
        try:
            fault_point("durability.snapshot.swap")
            publish_aside(tmp, final)
        except BaseException:
            discard_aside(tmp)
            raise
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["writes"]).inc()
            registry.counter(_COUNTERS["bytes"]).inc(len(blob))
        return final

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def load_newest(self) -> Tuple[List[Pair], int, int]:
        """``(pairs, lsn, corrupt_skipped)`` from the newest *valid* snapshot.

        Generations are tried newest-first; one that fails its CRC (or
        any decode check) is counted and skipped, falling back to the
        previous generation — whose longer WAL tail replays the
        difference.  Raises only when no generation is valid.
        """
        lsns = self.list_lsns()
        skipped = 0
        registry = active_registry()
        for lsn in reversed(lsns):
            try:
                blob = self._path_for(lsn).read_bytes()
                pairs, decoded_lsn = decode_snapshot(blob)
            except (OSError, CorruptSerializationError):
                skipped += 1
                if registry is not None:
                    registry.counter(_COUNTERS["corrupt_skipped"]).inc()
                continue
            if decoded_lsn != lsn:
                skipped += 1
                if registry is not None:
                    registry.counter(_COUNTERS["corrupt_skipped"]).inc()
                continue
            if registry is not None:
                registry.counter(_COUNTERS["loads"]).inc()
            return pairs, lsn, skipped
        raise CorruptSerializationError(
            f"no valid snapshot for log {self.log_id} ({len(lsns)} candidates, {skipped} corrupt)"
        )

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self) -> Optional[int]:
        """Drop all but the newest :data:`RETAINED_GENERATIONS`; returns
        the oldest kept LSN.

        The returned LSN is the safe WAL-truncation cutoff: every
        surviving snapshot can still be reached, so frames at or below
        it are redundant under *any* fallback.
        """
        lsns = self.list_lsns()
        if not lsns:
            return None
        doomed = lsns[:-RETAINED_GENERATIONS]
        registry = active_registry()
        for lsn in doomed:
            try:
                self._path_for(lsn).unlink()
            except OSError:
                continue
            if registry is not None:
                registry.counter(_COUNTERS["pruned"]).inc()
        kept = lsns[len(doomed) :]
        return kept[0] if kept else None

    def delete_files(self) -> None:
        """Remove every generation (post-seal cleanup after split/merge)."""
        for lsn in self.list_lsns():
            try:
                self._path_for(lsn).unlink()
            except OSError:
                continue
