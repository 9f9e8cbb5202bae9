"""A replica set behind the :class:`~repro.service.shard.Shard` surface.

:class:`ReplicatedShard` *is a* service shard — the
:class:`~repro.service.router.ShardRouter` routes to it, gates writes on
it, and checkpoints it exactly like a plain shard — but inside it keeps
N :class:`Replica` copies of the same key range, each an ordinary
:class:`~repro.service.shard.Shard` wrapping its own adaptive index and
(when durable) its own WAL.

**Reads** are steered to one replica by the
:class:`~repro.replication.routing.ReplicaRouter`; a replica that fails
a read is marked down and the batch is rerouted to a survivor without
surfacing the failure.  **Writes** fan out to every live replica in
replica order (under the replicated shard's operation lock, so all
replica WALs record the same append order and their LSNs stay
comparable).  A replica whose WAL append fails — a poisoned log, a full
disk — is fenced and marked down while the survivors acknowledge; the
write only fails when *no* replica durably accepted it.  Down replicas
count the writes they miss (``behind``), which is both the router's
staleness penalty and recovery's signal for which copy is
authoritative.

Invariant: every *acknowledged* write is applied (and, when durable,
logged) on every replica that is up at acknowledgment time — so any
surviving replica alone can serve the full acked history, and recovery
reconciles stragglers from the copy with the highest WAL LSN.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.obs.runtime import active_registry
from repro.replication.profiles import ReplicaProfile
from repro.replication.routing import ReplicaRouter
from repro.service.partition import Key
from repro.service.shard import Pair, Shard, span_if_traced

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.durability.log import DurableLog

T = TypeVar("T")

#: RA004: span-name literal for replicated shard operations.
_REPLICA_OP_SPAN = "replication.replica_op"

#: RA004: literal instrument names for the replica-set layer.
_COUNTERS = {
    "downs": "replication.replicas_marked_down",
    "fallbacks": "replication.fallbacks",
}
_REPLICAS_UP_GAUGE = "replication.replicas_up"


class ReplicaSetUnavailableError(RuntimeError):
    """Every replica of a shard is down; the operation cannot proceed."""


def _counter_delta(
    before: Mapping[str, int], after: Mapping[str, int]
) -> Dict[str, int]:
    """Structural events that happened between two counter snapshots."""
    delta: Dict[str, int] = {}
    for event, count in after.items():
        changed = count - before.get(event, 0)
        if changed:
            delta[event] = changed
    return delta


class Replica:
    """One copy of a shard: an inner Shard plus divergence/health state."""

    def __init__(self, replica_id: int, profile: ReplicaProfile, shard: Shard) -> None:
        self.replica_id = replica_id
        self.profile = profile
        #: The inner plain shard: owns the index, the op lock, and (when
        #: durable) this replica's private WAL.
        self.shard = shard
        self.down = False
        self.down_reason: Optional[str] = None
        #: Writes fanned out while this replica was down (staleness).
        self.behind = 0
        self.reads_routed = 0
        #: Router state: measured modeled ns/op per read class, and how
        #: many batches of each class were routed here (sampling cadence).
        self.cost_ewma: Dict[str, float] = {}
        self.routed_batches: Dict[str, int] = {}


class ReplicatedShard(Shard):
    """N divergent replicas presented as one service shard."""

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[Replica],
        router: Optional[ReplicaRouter] = None,
    ) -> None:
        if not replicas:
            raise ValueError("a replicated shard needs at least one replica")
        primary = replicas[0]
        super().__init__(
            shard_id,
            primary.shard.index,
            thread_safe=False,
            durable_log=primary.shard.durable_log,
        )
        self.replicas: List[Replica] = list(replicas)
        self.router = router or ReplicaRouter()

    # ------------------------------------------------------------------
    # Replica health
    # ------------------------------------------------------------------
    def _alive(self) -> List[Replica]:
        return [replica for replica in self.replicas if not replica.down]

    def _authoritative(self) -> Replica:
        """The first live replica: holds the complete acked history."""
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
        """Rebuild a down replica from a live copy and re-admit it.

        The replacement index is bulk-loaded under the replica's *own*
        profile (divergence policy survives the outage) from the
        authoritative replica's content, and a fresh snapshot heals its
        log.  A replica whose WAL is poisoned cannot be revived in
        process — only :meth:`~repro.service.router.ShardRouter.recover`
        may reopen a poisoned log.
        """
        replica = self.replicas[replica_id]
        if not replica.down:
            return replica
        log = replica.shard.durable_log
        if log is not None and log.wal.poisoned is not None:
            raise RuntimeError(
                f"replica {replica_id} of shard {self.shard_id} has a "
                "poisoned WAL; it can only return through recovery"
            )
        with self.write_gate, self._guard():
            pairs = self._authoritative().shard.items()
            replica.shard.index = replica.profile.build_index(pairs)
            if log is not None:
                log.checkpoint(pairs)
            replica.down = False
            replica.down_reason = None
            replica.behind = 0
            replica.cost_ewma = {}
        registry = active_registry()
        if registry is not None:
            registry.gauge(_REPLICAS_UP_GAUGE).set(len(self._alive()))
        return replica

    # ------------------------------------------------------------------
    # Routed reads
    # ------------------------------------------------------------------
    def get(self, key: Key) -> Optional[int]:
        """The value under ``key``, served by the cheapest live replica."""
        return self._routed_read("point", "get", 1, lambda replica: replica.shard.get(key))

    def get_many(self, keys: Sequence[Key]) -> List[Optional[int]]:
        """Values aligned with ``keys``; the whole batch rides one replica."""
        if not keys:
            return []
        return self._routed_read(
            "point",
            "get_many",
            len(keys),
            lambda replica: replica.shard.get_many(keys),
        )

    def scan(self, start_key: Key, count: int) -> List[Pair]:
        """Ordered pairs from the replica scoring cheapest for scans."""
        return self._routed_read(
            "scan",
            "scan",
            1,
            lambda replica: replica.shard.scan(start_key, count),
        )

    def _routed_read(
        self,
        kind: str,
        op: str,
        operations: int,
        request: Callable[[Replica], T],
    ) -> T:
        """Route one read batch; fall back to survivors on failure.

        A replica that raises mid-read is skipped and the batch is
        retried on the next-best copy; once a survivor answers, the
        copies that failed are marked down — the caller never sees a
        single replica failure.  A batch that fails on *every* live
        replica is the request's fault (a wrong-typed key, say), not
        the replicas': the error surfaces as a plain shard would raise
        it and every copy stays up.  Only a set with no live replica
        raises :class:`ReplicaSetUnavailableError` (from the router's
        pick).  Measurement is skip-sampled: on sampled batches the
        replica's structural counter delta is priced and folded into
        its EWMA.
        """
        with span_if_traced(
            _REPLICA_OP_SPAN, op=op, shard_id=self.shard_id, kind=kind
        ):
            failed: List[Tuple[Replica, Exception]] = []
            while True:
                replica = self.router.pick(
                    self, kind, exclude=[loser for loser, _ in failed]
                )
                before: Optional[Dict[str, int]] = None
                if self.router.should_measure(replica, kind):
                    before = replica.shard.counter_snapshot()
                try:
                    result = request(replica)
                except Exception as error:
                    failed.append((replica, error))
                    if len(failed) == len(self._alive()):
                        raise
                    self._note_fallback()
                    continue
                for loser, error in failed:
                    self.mark_down(loser, f"{op} failed: {error!r}")
                replica.reads_routed += operations
                self._note_ops(operations)
                if before is not None:
                    self.router.observe(
                        replica,
                        kind,
                        _counter_delta(before, replica.shard.counter_snapshot()),
                        operations,
                    )
                return result

    def _note_fallback(self) -> None:
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["fallbacks"]).inc()

    # ------------------------------------------------------------------
    # Fanned-out writes (caller holds ``write_gate``)
    # ------------------------------------------------------------------
    def put(self, key: Key, value: int) -> None:
        """Upsert one pair on every live replica."""
        self._fanout_write("put", 1, lambda replica: replica.shard.put(key, value))

    def put_many(self, pairs: Sequence[Pair]) -> None:
        """Upsert a batch on every live replica (per-replica group commit)."""
        batch = list(pairs)
        if not batch:
            return
        self._fanout_write(
            "put_many", len(batch), lambda replica: replica.shard.put_many(batch)
        )

    def delete(self, key: Key) -> bool:
        """Remove ``key`` everywhere; True when any live replica had it."""
        results = self._fanout_write(
            "delete", 1, lambda replica: replica.shard.delete(key)
        )
        return any(bool(result) for result in results)

    def _fanout_write(
        self, op: str, records: int, apply: Callable[[Replica], T]
    ) -> List[T]:
        """Apply one write to every live replica, fencing failures.

        Runs under this shard's operation lock so every replica WAL
        records the same append order.  A replica whose apply raises
        (poisoned WAL, injected fault) while another accepts the write
        is marked down; the write acknowledges as long as at least one
        replica durably accepted it.  A write that *every* live replica
        refuses is the request's fault: the first error surfaces as a
        plain shard would raise it and the replicas stay up.  Only a
        fully-down set raises :class:`ReplicaSetUnavailableError`.
        """
        with span_if_traced(
            _REPLICA_OP_SPAN, op=op, shard_id=self.shard_id, records=records
        ):
            with self._guard():
                self._note_ops(records)
                results: List[T] = []
                failed: List[Tuple[Replica, Exception]] = []
                for replica in self.replicas:
                    if replica.down:
                        replica.behind += records
                        continue
                    try:
                        results.append(apply(replica))
                    except Exception as error:
                        failed.append((replica, error))
                if not results:
                    if failed:
                        raise failed[0][1]
                    raise ReplicaSetUnavailableError(
                        f"no replica of shard {self.shard_id} accepted the {op}"
                    )
                for replica, error in failed:
                    self.mark_down(replica, f"{op} failed: {error!r}")
                    replica.behind += records
                return results

    # ------------------------------------------------------------------
    # Snapshots and introspection
    # ------------------------------------------------------------------
    def items(self) -> List[Pair]:
        """The authoritative replica's full content, sorted by key."""
        return self._authoritative().shard.items()

    @property
    def num_keys(self) -> int:
        """Key count of the authoritative copy (replica 0 when all down)."""
        alive = self._alive()
        target = alive[0] if alive else self.replicas[0]
        return target.shard.num_keys

    def size_bytes(self) -> int:
        """Total modeled bytes across *all* replicas — replication is
        honest about its memory cost."""
        return sum(replica.shard.size_bytes() for replica in self.replicas)

    def counter_snapshot(self) -> Dict[str, int]:
        """Structural counter events summed across replicas."""
        merged: Dict[str, int] = {}
        for replica in self.replicas:
            for event, count in replica.shard.counter_snapshot().items():
                merged[event] = merged.get(event, 0) + count
        return merged

    def encoding_census(self) -> Dict[str, Any]:
        """Leaf counts per encoding, summed across replicas."""
        merged: Dict[str, Any] = {}
        for replica in self.replicas:
            for encoding, entry in replica.shard.encoding_census().items():
                count = int(entry.get("count", 0)) if isinstance(entry, dict) else 0
                slot = merged.setdefault(encoding, {"count": 0})
                slot["count"] += count
        return merged

    def checkpoint_logs(self) -> List[Dict[str, Any]]:
        """Snapshot every live replica's log (caller holds ``write_gate``).

        Down replicas are skipped: their logs keep the pre-outage state
        for recovery, and reconciliation rebuilds them from the copy
        with the highest LSN.
        """
        with self._guard():
            return [
                {**entry, "replica": replica.replica_id}
                for replica in self._alive()
                for entry in replica.shard.checkpoint_logs()
            ]

    def logs(self) -> List[DurableLog]:
        """Every replica's private log, in replica order."""
        return [log for replica in self.replicas for log in replica.shard.logs()]

    def budget_members(self) -> List[Any]:
        """No members: replica budgets are divergence policy (each
        profile carries its own); a global rebalance would overwrite
        them and erase the very asymmetry replication exploits."""
        return []

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe summary: the aggregate plus one row per replica."""
        replica_rows: List[Dict[str, Any]] = []
        for replica in self.replicas:
            inner = replica.shard.stats()
            replica_rows.append(
                {
                    "replica": replica.replica_id,
                    "profile": replica.profile.name,
                    "down": replica.down,
                    "down_reason": replica.down_reason,
                    "behind": replica.behind,
                    "reads_routed": replica.reads_routed,
                    "cost_ewma_ns": {
                        kind: round(cost, 1)
                        for kind, cost in replica.cost_ewma.items()
                    },
                    "family": inner["family"],
                    "num_keys": inner["num_keys"],
                    "size_bytes": inner["size_bytes"],
                    "ops": inner["ops"],
                    "encoding_census": inner["encoding_census"],
                    "wal_lag": inner["wal_lag"],
                    "migrations": inner["migrations"],
                    "adaptation_phases": inner["adaptation_phases"],
                }
            )
        return {
            **super().stats(),
            "replication_factor": len(self.replicas),
            "replicas_up": len(self._alive()),
            "adaptation_phases": sum(
                row["adaptation_phases"] for row in replica_rows
            ),
            "migrations": sum(row["migrations"] for row in replica_rows),
            "replicas": replica_rows,
            "routing": self.router.describe(self),
        }

    def verify(self) -> None:
        """Verify every live replica and their mutual consistency.

        Each live replica runs its family's structural checks, and all
        live replicas must agree on content — the acked-write invariant
        made checkable.
        """
        reference: Optional[List[Pair]] = None
        reference_id = -1
        for replica in self._alive():
            replica.shard.verify()
            content = replica.shard.items()
            if reference is None:
                reference = content
                reference_id = replica.replica_id
            elif content != reference:
                from repro.core.invariants import InvariantViolation

                raise InvariantViolation(
                    [
                        f"replica {replica.replica_id} of shard {self.shard_id} "
                        f"diverged in content from replica {reference_id}"
                    ]
                )


def build_replicated_shard(
    shard_id: int,
    pairs: Sequence[Pair],
    profiles: Sequence[ReplicaProfile],
    logs: Optional[Sequence[DurableLog]] = None,
    router: Optional[ReplicaRouter] = None,
) -> ReplicatedShard:
    """Bulk-load one replicated shard: one index per profile, each over
    its own entry of ``logs`` (replica order; None = not durable)."""
    group = list(pairs)
    replicas = [
        Replica(
            position,
            profile,
            Shard(
                shard_id,
                profile.build_index(group),
                thread_safe=False,
                durable_log=logs[position] if logs else None,
            ),
        )
        for position, profile in enumerate(profiles)
    ]
    return ReplicatedShard(shard_id, replicas, router=router)
