"""Per-shard write-ahead log: CRC-framed records, group commit, torn-tail reads.

One WAL file per shard log; each frame carries its own CRC and is decoded
in ``codec.py``'s bounds-check-then-raise discipline:

.. code-block:: text

    file   := header frame*
    header := magic "RWAL" (4) || version u32          -- 8 bytes
    frame  := body_len u32 || crc32(body) u32 || body  -- 8-byte frame header
    body   := lsn u64 || op u8 || key || [value]       -- codec.py encodings

``op`` is ``1`` (put, key+value follow) or ``2`` (delete, key only).
LSNs are assigned under the log's internal lock and strictly increase;
a frame whose LSN does not exceed its predecessor's is treated as
corruption.

**Group commit**: :meth:`WriteAheadLog.append_batch` encodes every
record of a batch, crosses the ``durability.wal.append`` fault point
*once*, and lands the whole batch with a single OS write — and, under
the ``"batch"`` sync policy, a single ``fsync``.  That is the entire
durability overhead of a ``put_many``, amortized over the batch.

**Torn tails**: :func:`read_frames` stops at the first frame that is
truncated, fails its CRC, or breaks LSN monotonicity, and reports how
many trailing bytes it refused — a torn final frame from a mid-write
crash is *skipped and counted*, never raised, because with fsync-aware
acknowledgment only unacknowledged records can be torn.  Recovery
truncates the file back to the valid prefix before appending again.

**Poisoning**: an append that fails part-way (an injected tear, or a
real partial ``write()``/``fsync`` error) may leave garbage mid-file.
Because :func:`read_frames` stops at the first bad frame, any frame
appended *after* that garbage would be unreachable on replay — an
acknowledged-then-lost write.  So the first append failure poisons the
log: every later :meth:`~WriteAheadLog.append_batch` (and checkpoint
truncation) raises :class:`WalPoisonedError` until recovery re-opens
the file, which drops the torn tail first.

For fault tests (the wire oracle), a log built with a ``tear_rng``
simulates the mid-write crash honestly: when the
``durability.wal.append`` point fires, a random *prefix* of the encoded
batch is written before the fault propagates, exactly what a real kill
during the write syscall leaves behind.
"""

from __future__ import annotations

import os
import random
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.durability.codec import (
    CorruptSerializationError,
    Key,
    decode_key,
    decode_value,
    encode_key,
    encode_value,
)
from repro.faults.injector import InjectedFault, fault_point
from repro.obs.runtime import active_registry

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1

OP_PUT = 1
OP_DELETE = 2

_FILE_HEADER = struct.Struct("<4sI")
_FRAME_HEADER = struct.Struct("<II")
_LSN_OP = struct.Struct("<QB")

#: A single frame body longer than this is garbage framing (128 MiB).
MAX_FRAME_BYTES = 128 * 1024 * 1024

#: Sync policies: ``"none"`` flushes to the OS per batch; ``"batch"``
#: additionally ``fsync``\ s once per batch (the group-commit policy).
SYNC_POLICIES = ("none", "batch")

#: RA004: literal instrument names, never formatted on the write path.
_COUNTERS = {
    "batches": "durability.wal.append_batches",
    "records": "durability.wal.append_records",
    "bytes": "durability.wal.append_bytes",
    "fsyncs": "durability.wal.fsyncs",
    "truncations": "durability.wal.truncations",
    "torn_tails": "durability.wal.torn_tails",
    "torn_bytes": "durability.wal.torn_bytes",
    "poisoned": "durability.wal.poisoned",
}

#: One WAL record: ``(op, key, value)`` — value ignored for deletes.
Record = Tuple[int, Key, Optional[int]]


class LogSealedError(RuntimeError):
    """An append reached a log sealed by a shard split/merge."""


class WalPoisonedError(RuntimeError):
    """An append reached a log fenced off by an earlier append failure.

    The file may hold garbage after its last intact frame, and
    :func:`read_frames` would silently drop anything appended past that
    garbage — so the log refuses every durable operation until it is
    re-opened through recovery (which truncates the torn tail first).
    """


@dataclass(frozen=True)
class Frame:
    """One decoded WAL frame."""

    lsn: int
    op: int
    key: Key
    value: Optional[int]


@dataclass(frozen=True)
class TailInfo:
    """What :func:`read_frames` found at the end of a WAL file."""

    valid_bytes: int  # prefix length (incl. header) holding intact frames
    torn_bytes: int  # trailing bytes refused
    reason: Optional[str]  # None when the file ended cleanly

    @property
    def torn(self) -> bool:
        """True when trailing bytes were refused."""
        return self.torn_bytes > 0


def encode_frame(lsn: int, op: int, key: Key, value: Optional[int]) -> bytes:
    """One framed record: frame header plus CRC-covered body."""
    if op == OP_PUT:
        if value is None:
            raise ValueError("put records carry a value")
        body = _LSN_OP.pack(lsn, op) + encode_key(key) + encode_value(value)
    elif op == OP_DELETE:
        body = _LSN_OP.pack(lsn, op) + encode_key(key)
    else:
        raise ValueError(f"unknown WAL op {op}")
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def _decode_body(body: bytes) -> Frame:
    lsn, op = _LSN_OP.unpack_from(body, 0)
    offset = _LSN_OP.size
    key, offset = decode_key(body, offset)
    value: Optional[int] = None
    if op == OP_PUT:
        value, offset = decode_value(body, offset)
    elif op != OP_DELETE:
        raise CorruptSerializationError(f"unknown WAL op {op}")
    if offset != len(body):
        raise CorruptSerializationError(f"{len(body) - offset} trailing bytes in WAL frame")
    return Frame(lsn, op, key, value)


def read_frames(path: Path) -> Tuple[List[Frame], TailInfo]:
    """Every intact frame of the WAL at ``path``, plus tail diagnostics.

    A missing file reads as empty.  Parsing stops at the first frame
    that is truncated, fails its CRC, or does not increase the LSN; the
    refused suffix is reported in :class:`TailInfo`, never raised —
    only a corrupt *file header* raises, because that means the file
    was never a WAL at all.
    """
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return [], TailInfo(0, 0, None)
    if len(blob) < _FILE_HEADER.size:
        # A crash between file creation and the header write.
        return [], TailInfo(0, len(blob), "incomplete file header")
    magic, version = _FILE_HEADER.unpack_from(blob, 0)
    if magic != WAL_MAGIC:
        raise CorruptSerializationError(f"bad WAL magic {magic!r}")
    if version != WAL_VERSION:
        raise CorruptSerializationError(f"unsupported WAL version {version}")
    frames: List[Frame] = []
    offset = _FILE_HEADER.size
    last_lsn = 0
    reason: Optional[str] = None
    while offset < len(blob):
        if offset + _FRAME_HEADER.size > len(blob):
            reason = "truncated frame header"
            break
        body_len, crc = _FRAME_HEADER.unpack_from(blob, offset)
        if body_len > MAX_FRAME_BYTES:
            reason = f"frame declares {body_len} bytes (over the ceiling)"
            break
        body_end = offset + _FRAME_HEADER.size + body_len
        if body_end > len(blob):
            reason = "truncated frame body"
            break
        body = blob[offset + _FRAME_HEADER.size : body_end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            reason = "frame checksum mismatch"
            break
        try:
            frame = _decode_body(body)
        except CorruptSerializationError as error:
            reason = str(error)
            break
        if frame.lsn <= last_lsn:
            reason = f"LSN {frame.lsn} does not advance past {last_lsn}"
            break
        frames.append(frame)
        last_lsn = frame.lsn
        offset = body_end
    return frames, TailInfo(offset, len(blob) - offset, reason)


class WriteAheadLog:
    """Append-only framed log with group commit and sealed-log fencing.

    ``next_lsn`` seeds LSN assignment (recovery passes ``last + 1``).
    Appends, truncation, and sealing serialize on an internal lock so
    thread-safe (OLC) shards may write concurrently; note that for
    *same-key* concurrent upserts the WAL order is authoritative on
    replay, exactly as nondeterministic as the in-memory apply order.
    """

    def __init__(
        self,
        path: Path,
        sync: str = "batch",
        next_lsn: int = 1,
        create: bool = False,
        tear_rng: Optional[random.Random] = None,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(f"sync policy must be one of {SYNC_POLICIES}, got {sync!r}")
        if next_lsn < 1:
            raise ValueError(f"next_lsn must be >= 1, got {next_lsn}")
        self.path = path
        self.sync = sync
        self._lock = threading.Lock()
        self._next_lsn = next_lsn
        self._sealed = False
        self._poisoned: Optional[str] = None
        self._tear_rng = tear_rng
        if create or not path.exists():
            handle = open(path, "wb")
            handle.write(_FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION))
            handle.flush()
            if sync == "batch":
                os.fsync(handle.fileno())
        else:
            handle = open(path, "ab")
        self._handle = handle

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """The highest LSN handed out so far (0 before any append)."""
        return self._next_lsn - 1

    @property
    def sealed(self) -> bool:
        """True once a split/merge has fenced this log off."""
        return self._sealed

    @property
    def poisoned(self) -> Optional[str]:
        """Why a failed append fenced this log off (None when healthy)."""
        return self._poisoned

    def size_bytes(self) -> int:
        """Current on-disk size of the log file."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # Appends (group commit)
    # ------------------------------------------------------------------
    def append_batch(self, records: Sequence[Record]) -> Tuple[int, int]:
        """Durably append ``records`` as one group commit.

        Assigns consecutive LSNs, writes every frame with a single OS
        write, and — under the ``"batch"`` policy — issues exactly one
        ``fsync``.  Returns ``(first_lsn, last_lsn)``.  The
        ``durability.wal.append`` fault point fires before the write;
        with a ``tear_rng`` installed, an injected fault first lands a
        random prefix of the batch, simulating a mid-write crash.
        """
        if not records:
            raise ValueError("refusing to append an empty batch")
        with self._lock:
            if self._sealed:
                raise LogSealedError(f"log {self.path.name} is sealed (shard was re-keyed)")
            self._check_poisoned()
            first = self._next_lsn
            parts = []
            lsn = first
            for op, key, value in records:
                parts.append(encode_frame(lsn, op, key, value))
                lsn += 1
            blob = b"".join(parts)
            try:
                fault_point("durability.wal.append")
            except InjectedFault:
                # The simulated kill: a random prefix of the batch lands
                # before the fault propagates.  Whatever actually hit the
                # file, the log must be fenced — see _poison below.
                self._poison("injected append fault (possible torn write)")
                if self._tear_rng is not None:
                    self._handle.write(blob[: self._tear_rng.randrange(len(blob))])
                    self._handle.flush()
                raise
            try:
                self._handle.write(blob)
                self._handle.flush()
                if self.sync == "batch":
                    os.fsync(self._handle.fileno())
            except BaseException as error:
                self._poison(f"append failed mid-write: {error!r}")
                raise
            self._next_lsn = lsn
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["batches"]).inc()
            registry.counter(_COUNTERS["records"]).inc(len(records))
            registry.counter(_COUNTERS["bytes"]).inc(len(blob))
            if self.sync == "batch":
                registry.counter(_COUNTERS["fsyncs"]).inc()
        return first, lsn - 1

    def _poison(self, reason: str) -> None:
        """Fence the log after a failed append (caller holds the lock).

        ``_next_lsn`` was not advanced, so the failed records were never
        acknowledged; what must never happen is a *later* acknowledged
        append landing after the garbage this failure may have left,
        where replay cannot reach it.  Only re-opening through recovery
        (a fresh instance, torn tail dropped) lifts the fence.
        """
        if self._poisoned is not None:
            return
        self._poisoned = reason
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["poisoned"]).inc()

    def _check_poisoned(self) -> None:
        if self._poisoned is not None:
            raise WalPoisonedError(
                f"log {self.path.name} is poisoned ({self._poisoned}); "
                "re-open it via recovery before appending"
            )

    def skip_to(self, lsn: int) -> None:
        """Number the next append after ``lsn`` (no-op when already past it)."""
        with self._lock:
            self._next_lsn = max(self._next_lsn, lsn + 1)

    # ------------------------------------------------------------------
    # Truncation (checkpoint support)
    # ------------------------------------------------------------------
    def truncate_upto(self, cutoff_lsn: int) -> int:
        """Drop every frame with ``lsn <= cutoff_lsn``; returns frames kept.

        The survivor file is built aside and published with one
        ``os.replace`` behind the ``durability.wal.truncate`` fault
        point — a crash before the swap leaves the longer (harmlessly
        redundant) log in place.
        """
        from repro.core.atomicio import discard_aside, publish_aside, write_aside

        with self._lock:
            self._check_poisoned()
            self._handle.flush()
            frames, _tail = read_frames(self.path)
            kept = [frame for frame in frames if frame.lsn > cutoff_lsn]
            blob = _FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION) + b"".join(
                encode_frame(f.lsn, f.op, f.key, f.value) for f in kept
            )
            tmp = write_aside(self.path, blob, durable=self.sync == "batch")
            try:
                fault_point("durability.wal.truncate")
                self._handle.close()
                publish_aside(tmp, self.path, durable=self.sync == "batch")
            except BaseException:
                discard_aside(tmp)
                # The fault point precedes the close() above, so the old
                # handle is usually still open: release it before
                # reopening or every aborted truncation leaks a
                # descriptor (close() is idempotent when it did run).
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = open(self.path, "ab")
                raise
            self._handle = open(self.path, "ab")
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["truncations"]).inc()
        return len(kept)

    def drop_torn_tail(self, tail: TailInfo) -> None:
        """Cut a refused suffix off the file (recovery housekeeping)."""
        if not tail.torn:
            return
        with self._lock:
            self._handle.flush()
            self._handle.close()
            if tail.valid_bytes < _FILE_HEADER.size:
                # The crash landed inside the 8-byte file header;
                # os.truncate would zero-PAD up to header size, leaving
                # invalid magic that makes every later read_frames
                # raise.  Rewrite a fresh empty log instead.
                with open(self.path, "wb") as handle:
                    handle.write(_FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION))
                    handle.flush()
                    if self.sync == "batch":
                        os.fsync(handle.fileno())
            else:
                os.truncate(self.path, tail.valid_bytes)
            self._handle = open(self.path, "ab")
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["torn_tails"]).inc()
            registry.counter(_COUNTERS["torn_bytes"]).inc(tail.torn_bytes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def seal(self) -> None:
        """Fence the log: every later append raises :class:`LogSealedError`."""
        with self._lock:
            self._sealed = True
            self._handle.flush()
            if self.sync == "batch":
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Release the file handle (idempotent; appends stay possible only
        through a fresh instance)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def delete_file(self) -> None:
        """Close and remove the log file (post-seal cleanup)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass
