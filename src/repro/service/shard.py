"""One service shard: an index family instance plus its access discipline.

A :class:`Shard` wraps any existing family behind a uniform
get/put/scan surface and enforces the right synchronization for it:

* the OLC B+-tree synchronizes itself (versioned locks, validated
  reads), so its shard carries **no operation lock** — concurrent
  callers' reads interleave freely and only the router-level
  ``write_gate`` orders writers against online split/merge;
* every other family is single-threaded by construction (adaptive
  lookups may migrate encodings!), so both reads and writes serialize
  on the shard's re-entrant operation lock.

The ``write_gate`` exists on every shard, thread-safe or not: the
router acquires it around each write batch, and split/merge holds it
(plus the operation lock, when present) for the duration of a
build-aside+swap — which is how a rebalance can promise zero lost keys
without stopping reads on OLC shards.

A shard may also carry a :class:`~repro.durability.log.DurableLog`.
Writes then follow write-ahead order: the record is appended (and,
under the ``"batch"`` sync policy, fsynced) *before* the in-memory
index is touched, so an acknowledgment implies the write survives a
crash.  The ``durability.wal.apply`` fault point sits between the
durable append and the in-memory apply — a crash there leaves an
unacknowledged record on disk, which recovery replays (harmless: the
caller never saw an ack, and replay is idempotent).
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Any,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults.injector import fault_point
from repro.obs.introspect import census_stats
from repro.obs.runtime import active_tracer
from repro.obs.tracing import Tracer
from repro.service.partition import Key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.durability.log import DurableLog

Pair = Tuple[Key, int]

#: Smallest conceivable integer key, used to seed full-content scans on
#: families without an ``items()`` iterator (the dual-stage baseline).
_INT_KEY_FLOOR = -(2**63)

#: RA004: span-name literals for the per-shard service layer.
_SHARD_OP_SPAN = "service.shard_op"
_WAL_APPEND_SPAN = "durability.wal.append"


#: The one context every untraced span site and unlocked guard shares:
#: ``nullcontext`` holds no per-use state, so a single instance is safe
#: to enter from any number of threads at once.
_NOOP: ContextManager[None] = nullcontext()


class _TracedSpan:
    """A stack span around one service-layer operation of a traced request."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_started")

    def __init__(
        self, tracer: Tracer, name: str, attributes: Dict[str, object]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> None:
        self._started = time.perf_counter()
        self._span = self._tracer.start(self._name, **self._attributes)

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.end(self._span, elapsed_s=time.perf_counter() - self._started)


def span_if_traced(name: str, **attributes: object) -> ContextManager[None]:
    """Open a stack span only when this thread sits under a traced request.

    The distributed-trace propagation rule for the service layer: a
    request span is :meth:`~repro.obs.tracing.Tracer.adopt`-ed onto the
    thread that runs the operation, so ``tracer.current()`` is non-None
    exactly when this operation belongs to a traced request.  Untraced
    operations pay one global read and one branch and get the shared
    no-op context back; direct (non-request) callers never emit service
    spans.  Measured ``elapsed_s`` is attached on close — this is the
    service/durability layer, outside the RA002 wall-clock fence that
    guards the index hot paths.
    """
    tracer = active_tracer()
    if tracer is None or tracer.current() is None:
        return _NOOP
    return _TracedSpan(tracer, name, attributes)


class Shard:
    """One partition of the key space served by one index instance."""

    def __init__(
        self,
        shard_id: int,
        index: Any,
        thread_safe: bool = False,
        durable_log: Optional["DurableLog"] = None,
    ) -> None:
        #: The position this shard was built for.  Purely informational:
        #: the router derives routing positions from the table index, so
        #: a shard's constructed id may go stale after splits/merges.
        self.shard_id = shard_id
        self.index = index
        self.thread_safe = thread_safe
        #: When set, every write is appended here *before* it touches
        #: the index — the write-ahead discipline that makes an ack
        #: crash-durable.
        self.durable_log = durable_log
        #: Serializes every operation on non-thread-safe families.
        self.op_lock: Optional[threading.RLock] = (
            None if thread_safe else threading.RLock()
        )
        #: Orders write batches against online split/merge (all families).
        self.write_gate = threading.RLock()
        self.ops = 0
        #: Guards ``ops``: thread-safe shards serve reads with no other
        #: lock held, so unsynchronized increments would lose counts.
        self._ops_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Locking helpers
    # ------------------------------------------------------------------
    def _guard(self) -> ContextManager[Any]:
        return self.op_lock if self.op_lock is not None else _NOOP

    def _note_ops(self, amount: int) -> None:
        with self._ops_lock:
            self.ops += amount

    def _refuse_unorderable(self, keys: Iterable[Key]) -> None:
        """Reject keys the index cannot order before they reach the WAL.

        The index raises the same ``TypeError`` by itself — but only once
        the record is durable, and a log holding one wrong-typed key
        fails every later recovery, which sorts the replayed keys.  An
        index that declares no ``key_type`` keeps that risk.
        """
        expected = getattr(self.index, "key_type", None)
        if expected is None:
            return
        for key in keys:
            if not isinstance(key, expected):
                raise TypeError(
                    f"shard {self.shard_id} orders {expected.__name__} keys; "
                    f"refusing to log {type(key).__name__} key {key!r}"
                )

    # ------------------------------------------------------------------
    # Point and batched reads
    # ------------------------------------------------------------------
    def get(self, key: Key) -> Optional[int]:
        """The value under ``key``, or None."""
        with span_if_traced(_SHARD_OP_SPAN, op="get", shard_id=self.shard_id):
            with self._guard():
                self._note_ops(1)
                return self.index.lookup(key)

    def get_many(self, keys: Sequence[Key]) -> List[Optional[int]]:
        """Values aligned with ``keys`` (None for misses).

        Thread-safe shards answer through per-key OLC-validated lookups
        (safe against concurrent writers); locked shards sort the batch
        once and take the family's ``lookup_many`` fast path.
        """
        if not keys:
            return []
        with span_if_traced(
            _SHARD_OP_SPAN, op="get_many", shard_id=self.shard_id, count=len(keys)
        ):
            if self.thread_safe:
                lookup = self.index.lookup
                self._note_ops(len(keys))
                return [lookup(key) for key in keys]
            with self._guard():
                self._note_ops(len(keys))
                lookup_many = getattr(self.index, "lookup_many", None)
                if lookup_many is None:
                    lookup = self.index.lookup
                    return [lookup(key) for key in keys]
                order = sorted(range(len(keys)), key=lambda position: keys[position])
                sorted_values = lookup_many([keys[position] for position in order])
                values: List[Optional[int]] = [None] * len(keys)
                for rank, position in enumerate(order):
                    values[position] = sorted_values[rank]
                return values

    def scan(self, start_key: Key, count: int) -> List[Pair]:
        """Up to ``count`` ordered pairs starting at ``start_key``."""
        with span_if_traced(
            _SHARD_OP_SPAN, op="scan", shard_id=self.shard_id, count=count
        ):
            with self._guard():
                self._note_ops(1)
                return list(self.index.scan(start_key, count))

    # ------------------------------------------------------------------
    # Writes (caller holds ``write_gate``)
    # ------------------------------------------------------------------
    @property
    def supports_writes(self) -> bool:
        """False for build-once families (the HybridTrie has no insert)."""
        return hasattr(self.index, "insert")

    def put(self, key: Key, value: int) -> None:
        """Upsert one pair (write-ahead logged when the shard is durable)."""
        with span_if_traced(_SHARD_OP_SPAN, op="put", shard_id=self.shard_id):
            with self._guard():
                self._note_ops(1)
                if self.durable_log is not None:
                    self._refuse_unorderable((key,))
                    with span_if_traced(
                        _WAL_APPEND_SPAN, shard_id=self.shard_id, records=1
                    ):
                        self.durable_log.append_put(key, value)
                    fault_point("durability.wal.apply")
                self.index.insert(key, value)

    def put_many(self, pairs: Sequence[Pair]) -> None:
        """Upsert a batch, through the family's ``insert_many`` if any.

        On a durable shard the whole batch lands in the WAL as one
        group commit (one write, one fsync) before any pair touches the
        index — the ``put_many`` path is exactly where group commit
        amortizes the durability cost.
        """
        if not pairs:
            return
        with span_if_traced(
            _SHARD_OP_SPAN, op="put_many", shard_id=self.shard_id, count=len(pairs)
        ):
            with self._guard():
                self._note_ops(len(pairs))
                if self.durable_log is not None:
                    self._refuse_unorderable(key for key, _ in pairs)
                    with span_if_traced(
                        _WAL_APPEND_SPAN, shard_id=self.shard_id, records=len(pairs)
                    ):
                        self.durable_log.append_put_many(pairs)
                    fault_point("durability.wal.apply")
                insert_many = getattr(self.index, "insert_many", None)
                if insert_many is not None:
                    insert_many(list(pairs))
                    return
                insert = self.index.insert
                for key, value in pairs:
                    insert(key, value)

    def delete(self, key: Key) -> bool:
        """Remove ``key``; False when it was absent."""
        with span_if_traced(_SHARD_OP_SPAN, op="delete", shard_id=self.shard_id):
            with self._guard():
                self._note_ops(1)
                if self.durable_log is not None:
                    self._refuse_unorderable((key,))
                    with span_if_traced(
                        _WAL_APPEND_SPAN, shard_id=self.shard_id, records=1
                    ):
                        self.durable_log.append_delete(key)
                    fault_point("durability.wal.apply")
                return bool(self.index.delete(key))

    # ------------------------------------------------------------------
    # Snapshots and introspection
    # ------------------------------------------------------------------
    def items(self) -> List[Pair]:
        """All pairs currently in the shard, sorted by key.

        Used by split/merge to build replacement shards aside; callers
        must hold ``write_gate`` (and the operation lock is taken here)
        so the snapshot is consistent.
        """
        with self._guard():
            items_iter = getattr(self.index, "items", None)
            if items_iter is not None:
                return sorted(items_iter())
            return sorted(self.index.scan(_INT_KEY_FLOOR, self.num_keys))

    @property
    def num_keys(self) -> int:
        """Number of keys currently in the shard."""
        keys = getattr(self.index, "num_keys", None)
        if keys is not None:
            return int(keys)
        return len(self.index)

    def size_bytes(self) -> int:
        """Modeled bytes of the shard's index."""
        return int(self.index.size_bytes())

    def counter_snapshot(self) -> Dict[str, int]:
        """The index's structural counter events (for the cost model)."""
        return dict(self.index.counters.snapshot())

    def encoding_census(self) -> Dict[str, Any]:
        """The index's node/leaf encoding mix, whatever the family calls it.

        Empty for families without heterogeneous encodings (plain
        hashmap, OLC tree) — the ops console renders that as a single
        implicit encoding.
        """
        for probe in ("leaf_encoding_census", "encoding_census", "node_census"):
            census = getattr(self.index, probe, None)
            if census is not None:
                return dict(census_stats(census()))
        return {}

    def checkpoint_logs(self) -> List[Dict[str, Any]]:
        """Snapshot every log this shard carries and truncate its WAL.

        The caller holds ``write_gate``; the operation lock is taken
        here so the collected pairs are consistent with the WAL's LSN.
        A plain shard carries at most one log; a replicated shard
        overrides this to checkpoint every replica's log.
        """
        log = self.durable_log
        if log is None:
            return []
        with self._guard():
            pairs = self.items()
            lsn = log.checkpoint(pairs)
        return [
            {
                "log_id": log.log_id,
                "lsn": lsn,
                "num_keys": len(pairs),
                "wal_bytes": log.wal_size_bytes(),
            }
        ]

    def logs(self) -> List["DurableLog"]:
        """Every log this shard carries, in copy order (empty when not durable)."""
        return [] if self.durable_log is None else [self.durable_log]

    def close_logs(self) -> None:
        """Release every log handle this shard carries (idempotent)."""
        for log in self.logs():
            log.close()

    def budget_members(self) -> List[Any]:
        """The indexes whose manager budget a service-wide arbiter may set."""
        return [self.index]

    def wal_lag(self) -> Optional[int]:
        """Records appended since the last snapshot (None when not durable).

        The ops console's per-shard durability lag: how much WAL replay
        a crash right now would cost this shard — the worst of its logs.
        """
        lags = [
            max(0, log.wal.last_lsn - max(log.snapshots.list_lsns(), default=0))
            for log in self.logs()
        ]
        return max(lags, default=None)

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe summary of this shard."""
        manager = getattr(self.index, "manager", None)
        return {
            "shard_id": self.shard_id,
            "family": getattr(self.index, "stats_family", type(self.index).__name__),
            "thread_safe": self.thread_safe,
            "durable": self.durable_log.stats() if self.durable_log is not None else None,
            "wal_lag": self.wal_lag(),
            "num_keys": self.num_keys,
            "size_bytes": self.size_bytes(),
            "ops": self.ops,
            "encoding_census": self.encoding_census(),
            "adaptation_phases": (
                manager.counters.adaptation_phases if manager is not None else 0
            ),
            "migrations": (
                manager.counters.expansions + manager.counters.compactions
                if manager is not None
                else 0
            ),
        }

    def verify(self) -> None:
        """Run the family's structural self-verification, if it has one."""
        verify = getattr(self.index, "verify", None)
        if verify is not None:
            with self._guard():
                verify()
