"""One service shard: a replica set of N >= 1 copies of one key range.

A plain shard is the set of one (the family's index); a replicated one
keeps an adaptive copy per divergence profile.  Either way a
:class:`Shard` has one read surface and one write path over its
:class:`Replica` copies.

**Locking.**  The OLC B+-tree synchronizes itself, so its copy has no
operation lock; every other family is single-threaded by construction
(adaptive lookups may migrate encodings!), so each copy serializes on
its own re-entrant lock.  That lock guards the copy's index and nothing
else: a write holds it only to apply, and a checkpoint only to read the
pairs, so a read never waits on a WAL append, an ``fsync`` or a
snapshot — on any copy.  The router holds the shard's ``write_gate``
around every write batch, which orders the copies' WAL appends (one
append order on every copy) and fixes their LSNs for a checkpoint, and
split/merge holds it for a whole build-aside+swap.

**Writes** fan out to every live copy in copy order.  A durable copy
appends (and, under ``sync="batch"``, fsyncs) its record *before* its
index is touched, so an acknowledgment survives a crash; the
``durability.wal.apply`` fault point sits between the two (a crash
there leaves an unacknowledged record that replay applies harmlessly).
A copy that fails while another accepts is fenced (marked down) and
counts what it misses (``behind``); a write every live copy refuses is
the request's fault and raises with every copy up — at N = 1, exactly
what the index itself would do.

**Reads** have one algorithm on every copy: each key is one call of the
index's own ``lookup`` (no family keeps a sorted batch read: a shard's
share of a routed batch is a few scattered keys).  A single copy is read
right here (a lock-free one with no lock held), or, when it is lock-free
and the read untraced, by the router itself, key by key
(``ShardRouter._lookup_each``, which moves ``ops`` under ``_ops_lock``
as :meth:`Shard.get_many` does).  Among several, a batch
of read class ``point`` or ``scan`` goes to the live copies whose
profile has that affinity (all live copies when none has), taken in turn
(:meth:`Shard.pick`), and a copy that fails a read is marked down while
a survivor answers.

Invariant: every *acknowledged* write is applied (and logged) on every
copy up at acknowledgment time, so any live copy serves the full acked
history and recovery reconciles stragglers from the highest WAL LSN.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.faults.injector import fault_point
from repro.obs.introspect import IndexFamily, census_stats
from repro.obs.runtime import active_registry, active_tracer
from repro.obs.tracing import Span, Tracer
from repro.service.partition import Key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.durability.log import DurableLog
    from repro.replication.profiles import ReplicaProfile

Pair = Tuple[Key, int]
IndexFactory = Callable[[List[Pair]], IndexFamily]
T = TypeVar("T")
A = TypeVar("A")

#: RA004: span-name literals for the per-shard service layer.
_SHARD_OP_SPAN = "service.shard_op"
_WAL_APPEND_SPAN = "durability.wal.append"

#: RA004: literal instrument names for the copies' reads and health.
_COUNTERS = {
    "point": "replication.reads.point",
    "scan": "replication.reads.scan",
    "downs": "replication.replicas_marked_down",
    "fallbacks": "replication.fallbacks",
}
_REPLICAS_UP_GAUGE = "replication.replicas_up"


#: Per write op, the WAL append method and index method it calls.
_WRITE_METHODS = {
    "put_many": ("append_put_many", "insert_many"),
    "delete": ("append_delete", "delete"),
}


#: The guard of a lock-free copy: ``nullcontext`` holds no per-use
#: state, so one instance is safe to enter from any number of threads.
_NOOP: ContextManager[None] = nullcontext()


class ServiceSpan:
    """An open stack span around one service-layer operation of a traced
    request; :meth:`close` attaches its measured ``elapsed_s``."""

    __slots__ = ("_tracer", "_span", "_started")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._started = time.perf_counter()

    def close(self, **attributes: object) -> None:
        """End the span on this thread's stack, adding ``attributes``."""
        self._tracer.end(
            self._span, elapsed_s=time.perf_counter() - self._started, **attributes
        )


def open_span(tracer: Tracer, name: str, **attributes: object) -> Optional[ServiceSpan]:
    """A span for this operation when this thread sits under a traced
    request, else None.

    The distributed-trace propagation rule for the service layer: a
    request span is :meth:`~repro.obs.tracing.Tracer.adopt`-ed onto the
    thread that runs the operation, so ``tracer.current()`` is non-None
    exactly when this operation belongs to a traced request; direct
    (non-request) callers never emit service spans.  Each router and
    shard site reads ``active_tracer()`` once, calls this only when a
    tracer is installed (``span = tracer and open_span(tracer, ...)``)
    and closes a returned span in ``finally``, so with tracing off a
    site enters no frame.  Measured ``elapsed_s`` is attached on close —
    this is the service/durability layer, outside the RA002 wall-clock
    fence that guards the index hot paths.
    """
    if tracer.current() is None:
        return None
    return ServiceSpan(tracer, tracer.start(name, **attributes))


class ReplicaSetUnavailableError(RuntimeError):
    """Every copy of a shard is down; the operation cannot proceed."""


def _lookup_each(index: IndexFamily, keys: Sequence[Key]) -> List[Optional[int]]:
    return list(map(index.lookup, keys))


def _scan(index: IndexFamily, bounds: Tuple[Key, int]) -> List[Pair]:
    return list(index.scan(*bounds))


class Replica:
    """One copy of a shard: its index, its optional WAL, its own operation
    lock, and its health (``down``/``behind``)."""

    def __init__(
        self,
        replica_id: int,
        build: IndexFactory,
        pairs: List[Pair],
        thread_safe: bool = False,
        durable_log: Optional["DurableLog"] = None,
        profile: Optional["ReplicaProfile"] = None,
    ) -> None:
        self.replica_id = replica_id
        #: Bulk-loads this copy's index: at construction and on revive.
        self.build = build
        self.index: IndexFamily = build(pairs)
        self.thread_safe = thread_safe
        #: When set, every write is appended here *before* it touches the
        #: index — the write-ahead discipline behind a crash-durable ack.
        self.durable_log = durable_log
        #: The divergence profile tuning this copy's manager, memory
        #: budget included (None: the family factory built it).
        self.profile = profile
        #: Serializes every operation on non-thread-safe families.
        self.op_lock: Optional[threading.RLock] = (
            None if thread_safe else threading.RLock()
        )
        self.down = False
        self.down_reason: Optional[str] = None
        #: Writes fanned out while this copy was down (staleness).
        self.behind = 0
        self.reads_routed = 0

    # Read by benchmarks/e2e/server_main.py as ``replica.shard.{index,
    # durable_log}``; ROADMAP item 2(b) deletes this alias.
    @property
    def shard(self) -> "Replica":
        return self

    def _guard(self) -> ContextManager[Any]:
        return self.op_lock if self.op_lock is not None else _NOOP

    def items(self) -> List[Pair]:
        """Every pair of this copy, in key order."""
        with self._guard():
            return list(self.index.items())

    def encoding_census(self) -> Dict[str, Any]:
        """The index's node/leaf encoding mix, in the stats shape."""
        return census_stats(self.index.encoding_census())

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe row: this copy's health and index state; ``wal_lag``
        is what a crash right now would replay."""
        index = self.index
        counters = index.manager.counters if index.manager is not None else None
        log = self.durable_log
        return {
            "replica": self.replica_id,
            "profile": getattr(self.profile, "name", None),
            "down": self.down,
            "down_reason": self.down_reason,
            "behind": self.behind,
            "reads_routed": self.reads_routed,
            "family": index.stats_family,
            "num_keys": index.num_keys,
            "size_bytes": index.size_bytes(),
            "encoding_census": self.encoding_census(),
            "wal_lag": (
                None
                if log is None
                else max(0, log.wal.last_lsn - max(log.snapshots.list_lsns(), default=0))
            ),
            "adaptation_phases": counters.adaptation_phases if counters is not None else 0,
            "migrations": (
                counters.expansions + counters.compactions if counters is not None else 0
            ),
        }


class Shard:
    """One partition of the key space served by N >= 1 copies."""

    def __init__(self, shard_id: int, replicas: Sequence[Replica]) -> None:
        if not replicas:
            raise ValueError("a shard needs at least one copy")
        #: The position this shard was built for.  Purely informational:
        #: the router derives routing positions from the table index, so
        #: a shard's constructed id may go stale after splits/merges.
        self.shard_id = shard_id
        self.replicas: List[Replica] = list(replicas)
        #: Reads picked per class, the turn counter of :meth:`pick`.
        self._picks = {"point": 0, "scan": 0}
        #: Orders write batches against online split/merge and keeps
        #: every copy's WAL in the same append order.
        self.write_gate = threading.RLock()
        self.ops = 0
        #: Guards ``ops`` and ``_picks``: thread-safe copies serve reads
        #: with no other lock held, so unsynchronized increments would
        #: lose counts.
        self._ops_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Copy health
    # ------------------------------------------------------------------
    def _alive(self) -> List[Replica]:
        return [copy for copy in self.replicas if not copy.down]

    def _authoritative(self) -> Replica:
        """The first live copy: holds the complete acked history."""
        alive = self._alive()
        if not alive:
            raise ReplicaSetUnavailableError(
                f"all {len(self.replicas)} replicas of shard "
                f"{self.shard_id} are down"
            )
        return alive[0]

    def mark_down(self, replica: Replica, reason: str) -> None:
        """Fence ``replica`` out of routing and write fan-out."""
        if replica.down:
            return
        replica.down = True
        replica.down_reason = reason
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["downs"]).inc()
            registry.gauge(_REPLICAS_UP_GAUGE).set(len(self._alive()))

    def revive(self, replica_id: int) -> Replica:
        """Rebuild a down copy from a live one and re-admit it.

        The copy's *own* builder (its divergence profile survives the
        outage) bulk-loads the authoritative content, and a fresh
        snapshot at the authoritative copy's LSN heals its log.  A poisoned
        WAL only returns through :meth:`~repro.service.router.ShardRouter.recover`.
        """
        replica = self.replicas[replica_id]
        if not replica.down:
            return replica
        log = replica.durable_log
        if log is not None and log.wal.poisoned is not None:
            raise RuntimeError(
                f"replica {replica_id} of shard {self.shard_id} has a "
                "poisoned WAL; it can only return through recovery"
            )
        with self.write_gate, replica._guard():
            source = self._authoritative()
            pairs = source.items()
            replica.index = replica.build(pairs)
            if log is not None and source.durable_log is not None:
                log.adopt(pairs, source.durable_log.last_lsn)
            replica.down = False
            replica.down_reason = None
            replica.behind = 0
        registry = active_registry()
        if registry is not None:
            registry.gauge(_REPLICAS_UP_GAUGE).set(len(self._alive()))
        return replica

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_many(self, keys: Sequence[Key]) -> List[Optional[int]]:
        """Values aligned with ``keys``, one ``lookup`` per key; the whole
        batch rides one copy.

        A single copy is read right here, a lock-free one with no lock
        held and a locked one under its ``op_lock``; several are read
        through :meth:`_read`.
        """
        if not keys:
            return []
        tracer = active_tracer()
        span = tracer and open_span(
            tracer, _SHARD_OP_SPAN, op="get_many", shard_id=self.shard_id, count=len(keys)
        )
        try:
            replicas = self.replicas
            if len(replicas) > 1:
                return self._read("point", "get_many", len(keys), _lookup_each, keys)
            with self._ops_lock:
                self.ops += len(keys)
            only = replicas[0]
            if only.op_lock is None:
                return list(map(only.index.lookup, keys))
            with only.op_lock:
                return list(map(only.index.lookup, keys))
        finally:
            if span is not None:
                span.close()

    def scan(self, start_key: Key, count: int) -> List[Pair]:
        """Up to ``count`` ordered pairs starting at ``start_key``."""
        tracer = active_tracer()
        span = tracer and open_span(
            tracer, _SHARD_OP_SPAN, op="scan", shard_id=self.shard_id, count=count
        )
        try:
            replicas = self.replicas
            if len(replicas) > 1:
                return self._read("scan", "scan", 1, _scan, (start_key, count))
            with self._ops_lock:
                self.ops += 1
            only = replicas[0]
            if only.op_lock is None:
                return list(only.index.scan(start_key, count))
            with only.op_lock:
                return list(only.index.scan(start_key, count))
        finally:
            if span is not None:
                span.close()

    def pick(self, kind: str, exclude: Collection[Replica] = ()) -> Replica:
        """The copy that serves the next read of class ``kind``.

        The pool is the live copies not in ``exclude`` whose profile's
        affinity is ``kind``, or every such live copy when none has it;
        each pick takes the pool's next copy in turn.  Raises
        :class:`ReplicaSetUnavailableError` when no candidate is live.
        """
        alive = [copy for copy in self.replicas if not copy.down and copy not in exclude]
        if not alive:
            raise ReplicaSetUnavailableError(
                f"all {len(self.replicas)} replicas of shard "
                f"{self.shard_id} are down"
            )
        pool = [copy for copy in alive if copy.profile and copy.profile.affinity == kind] or alive
        with self._ops_lock:
            turn = self._picks[kind] = self._picks[kind] + 1
        return pool[turn % len(pool)]

    def _read(
        self, kind: str, op: str, operations: int, request: Callable[[IndexFamily, A], T], arg: A
    ) -> T:
        """Run ``request(index, arg)`` on one of several copies' indexes,
        under that copy's lock (a single copy is read by the caller).

        :meth:`pick` chooses the copy; one that raises is skipped for the
        next pick, then marked down once a survivor answers.  A batch
        every live copy fails is the request's fault (a wrong-typed key,
        say) and raises with every copy up.
        """
        with self._ops_lock:
            self.ops += operations
        failed: Dict[Replica, Exception] = {}
        while True:
            replica = self.pick(kind, failed)
            try:
                with replica._guard():
                    result = request(replica.index, arg)
            except Exception as error:
                failed[replica] = error
                if len(failed) == len(self._alive()):
                    raise
                registry = active_registry()
                if registry is not None:
                    registry.counter(_COUNTERS["fallbacks"]).inc()
                continue
            for loser, error in failed.items():
                self.mark_down(loser, f"{op} failed: {error!r}")
            replica.reads_routed += operations
            registry = active_registry()
            if registry is not None:
                registry.counter(_COUNTERS[kind]).inc()
            return result

    # ------------------------------------------------------------------
    # Writes (caller holds ``write_gate``)
    # ------------------------------------------------------------------
    def put_many(self, pairs: Sequence[Pair]) -> None:
        """Upsert a batch on every live copy: a durable copy logs it as one
        group commit (one write, one fsync) before any pair touches its
        index — where group commit amortizes the durability cost."""
        if not pairs:
            return
        self._fanout_write("put_many", pairs, (pairs,), count=len(pairs))

    def delete(self, key: Key) -> bool:
        """Remove ``key`` everywhere; False when it was absent."""
        return self._fanout_write("delete", ((key, None),), (key,))

    def _fanout_write(
        self,
        op: str,
        records: Sequence[Tuple[Key, Any]],
        args: Tuple[Any, ...],
        **span_attributes: object,
    ) -> bool:
        """The one write path: log, then apply, on every live copy in order.

        ``records`` are the write's pairs (value None for a delete).  A
        key the index cannot order is refused once, before any copy
        logs: the index would raise the same ``TypeError`` itself, but
        only after the record is durable, and a log holding it fails
        every later recovery (which sorts the replayed keys).  Each live
        copy calls its WAL's append method for ``op`` (see
        :data:`_WRITE_METHODS`) with ``args`` when durable, crosses
        ``durability.wal.apply``, then its index's method with ``args``
        under its own lock (none on a lock-free copy).
        A copy that raises while another accepts is marked down; if none
        accepts, the first error surfaces and every copy stays up.
        Returns whether any copy's index method returned true (for a
        delete: whether the key was there).  Under a traced request the
        write's ``service.shard_op`` span also carries ``span_attributes``.
        """
        tracer = active_tracer()
        span = tracer and open_span(
            tracer, _SHARD_OP_SPAN, op=op, shard_id=self.shard_id, **span_attributes
        )
        try:
            append, apply = _WRITE_METHODS[op]
            first = self.replicas[0]
            if first.durable_log is not None:
                expected = first.index.key_type
                for key, _ in records:
                    if not isinstance(key, expected):
                        raise TypeError(
                            f"shard {self.shard_id} orders {expected.__name__} keys; "
                            f"refusing to log {type(key).__name__} key {key!r}"
                        )
            written = len(records)
            with self._ops_lock:
                self.ops += written
            accepted, hit = 0, False
            failed: List[Tuple[Replica, Exception]] = []
            for replica in self.replicas:
                if replica.down:
                    replica.behind += written
                    continue
                try:
                    # The caller's write_gate orders the appends; the copy's
                    # lock is held for the apply alone, never across an fsync.
                    if replica.durable_log is not None:
                        appending = tracer and open_span(
                            tracer, _WAL_APPEND_SPAN, shard_id=self.shard_id, records=written
                        )
                        try:
                            getattr(replica.durable_log, append)(*args)
                        finally:
                            if appending is not None:
                                appending.close()
                        fault_point("durability.wal.apply")
                    op_lock = replica.op_lock
                    if op_lock is None:
                        applied = getattr(replica.index, apply)(*args)
                    else:
                        with op_lock:
                            applied = getattr(replica.index, apply)(*args)
                    if applied:
                        hit = True
                    accepted += 1
                except Exception as error:
                    failed.append((replica, error))
            if not accepted:
                if failed:
                    raise failed[0][1]
                raise ReplicaSetUnavailableError(
                    f"no replica of shard {self.shard_id} accepted the {op}"
                )
            for replica, error in failed:
                self.mark_down(replica, f"{op} failed: {error!r}")
                replica.behind += written
            return hit
        finally:
            if span is not None:
                span.close()

    # ------------------------------------------------------------------
    # Snapshots and introspection
    # ------------------------------------------------------------------
    def items(self) -> List[Pair]:
        """The authoritative copy's content, sorted (split/merge hold
        ``write_gate`` so it is consistent)."""
        return self._authoritative().items()

    @property
    def num_keys(self) -> int:
        """Key count of the authoritative copy (copy 0 when all are down)."""
        alive = self._alive()
        return (alive[0] if alive else self.replicas[0]).index.num_keys

    def size_bytes(self) -> int:
        """Modeled bytes across *all* copies — replication is honest
        about its memory cost."""
        return sum(copy.index.size_bytes() for copy in self.replicas)

    def counter_snapshot(self) -> Dict[str, int]:
        """Structural counter events (for the cost model), summed across copies."""
        merged: Counter[str] = Counter()
        for copy in self.replicas:
            merged.update(copy.index.counters.snapshot())
        return dict(merged)

    def checkpoint_logs(self) -> List[Dict[str, Any]]:
        """Snapshot every live copy's log and truncate its WAL; the caller
        holds ``write_gate``, so no write moves a copy's LSN meanwhile.
        A copy's pairs are read under its lock and the snapshot is
        written (and fsynced) after the lock is released, so a read of
        the copy never waits on the disk.  Down copies keep their
        pre-outage logs, which recovery rebuilds from the copy with the
        highest LSN.
        """
        entries: List[Dict[str, Any]] = []
        for copy in self._alive():
            log = copy.durable_log
            if log is None:
                continue
            pairs = copy.items()
            lsn = log.checkpoint(pairs)
            entries.append(
                {
                    "replica": copy.replica_id,
                    "log_id": log.log_id,
                    "lsn": lsn,
                    "num_keys": len(pairs),
                    "wal_bytes": log.wal_size_bytes(),
                }
            )
        return entries

    def logs(self) -> List["DurableLog"]:
        """Every copy's log, in copy order (empty when not durable)."""
        return [copy.durable_log for copy in self.replicas if copy.durable_log is not None]

    def close_logs(self) -> None:
        """Release every log handle this shard carries (idempotent)."""
        for log in self.logs():
            log.close()

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe summary: the aggregate (``wal_lag`` the worst
        copy's) plus one row per copy."""
        rows = [copy.stats() for copy in self.replicas]
        lags = [row["wal_lag"] for row in rows if row["wal_lag"] is not None]
        census: Counter[str] = Counter()
        for row in rows:
            census.update({name: entry["count"] for name, entry in row["encoding_census"].items()})
        first = self.replicas[0]
        return {
            "shard_id": self.shard_id,
            "family": rows[0]["family"],
            "thread_safe": first.thread_safe,
            "durable": None if first.durable_log is None else first.durable_log.stats(),
            "wal_lag": max(lags, default=None),
            "num_keys": self.num_keys,
            "size_bytes": sum(row["size_bytes"] for row in rows),
            "ops": self.ops,
            "encoding_census": {name: {"count": count} for name, count in census.items()},
            "adaptation_phases": sum(row["adaptation_phases"] for row in rows),
            "migrations": sum(row["migrations"] for row in rows),
            "replication_factor": len(rows),
            "replicas_up": len(self._alive()),
            "replicas": rows,
        }

    def verify(self) -> None:
        """Run every live copy's structural checks, and check that they
        agree on content — the acked-write invariant made checkable."""
        alive = self._alive()
        for copy in alive:
            with copy._guard():
                copy.index.verify()
        for copy in alive[1:]:
            if copy.items() != alive[0].items():
                from repro.core.invariants import InvariantViolation

                raise InvariantViolation(
                    [
                        f"replica {copy.replica_id} of shard {self.shard_id} "
                        f"diverged in content from replica {alive[0].replica_id}"
                    ]
                )
