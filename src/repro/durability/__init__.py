"""Durability for the sharded service: WAL, snapshots, crash recovery.

The package turns `repro.service` from a purely in-memory store into
one that survives kill-at-any-instruction crashes with zero lost
acknowledged writes:

* :mod:`repro.durability.codec` — tagged key/value wire encoding
  shared by WAL frames and snapshots;
* :mod:`repro.durability.wal` — per-shard CRC-framed write-ahead log
  with group commit and torn-tail-tolerant reads;
* :mod:`repro.durability.snapshot` — atomic snapshot generations with
  corrupt-newest fallback;
* :mod:`repro.durability.log` — the per-shard :class:`DurableLog`
  (create / recover / checkpoint / seal lifecycle);
* :mod:`repro.durability.manager` — the durability root directory and
  the CRC-wrapped routing manifest that is the store's commit point.

Every irreversible disk transition sits behind a named
:func:`repro.faults.fault_point` (see :data:`FAULT_SITES`); the wire
oracle (``tests/integration/test_wire_oracle.py``) crashes the served
store at each of them and recovers it from disk.
"""

from repro.durability.codec import Key, decode_key, decode_value, encode_key, encode_value
from repro.durability.log import DurableLog, RecoveryResult
from repro.durability.manager import (
    DurabilityManager,
    Manifest,
    build_partitioner,
    manifest_for,
    partitioner_spec,
)
from repro.durability.snapshot import SnapshotStore, decode_snapshot, encode_snapshot
from repro.durability.wal import (
    OP_DELETE,
    OP_PUT,
    Frame,
    LogSealedError,
    TailInfo,
    WalPoisonedError,
    WriteAheadLog,
    read_frames,
)

#: Every named crash site on the durable write/admin path, in the order
#: a write normally meets them.  The wire oracle arms each of these
#: (plus the service split/merge sites) and checks zero lost
#: acknowledged writes.
FAULT_SITES = (
    "durability.wal.append",
    "durability.wal.apply",
    "durability.snapshot.swap",
    "durability.wal.truncate",
    "durability.manifest.swap",
)

__all__ = [
    "FAULT_SITES",
    "DurabilityManager",
    "DurableLog",
    "Frame",
    "Key",
    "LogSealedError",
    "Manifest",
    "OP_DELETE",
    "OP_PUT",
    "RecoveryResult",
    "SnapshotStore",
    "TailInfo",
    "WalPoisonedError",
    "WriteAheadLog",
    "build_partitioner",
    "decode_key",
    "decode_snapshot",
    "decode_value",
    "encode_key",
    "encode_snapshot",
    "encode_value",
    "manifest_for",
    "partitioner_spec",
    "read_frames",
]
