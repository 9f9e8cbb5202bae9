"""The sharded index service front end.

A :class:`ShardRouter` owns N :class:`~repro.service.shard.Shard`\\ s and
a :class:`~repro.service.partition.Partitioner`, and exposes the familiar
index surface in batched form: ``get_many`` / ``put_many`` split each
request into per-shard sub-batches, ``scan`` merges ordered results
across shards (concatenation under range partitioning, a k-way heap
merge under hash partitioning).  Sub-batches run **on the calling
thread**: index work is pure Python under one interpreter lock, so a
thread hand-off buys it no parallelism and costs more than the work.
The one exception is a durable ``put_many``, whose per-shard WAL
``fsync`` waits leave the interpreter lock and are overlapped on a
``ThreadPoolExecutor``.

Online **shard split/merge** reuses the PR-1 build-aside+swap
discipline: the affected shards are write-frozen (reads keep flowing on
every copy), their contents are snapshotted and rebuilt into
replacement shards *aside*, and one atomic routing-table swap publishes
the new layout.  Every step crosses a :func:`~repro.faults.injector
.fault_point` (``service.split.*`` / ``service.merge.*``), and a fault
anywhere before the swap leaves the old table serving — zero lost keys
by construction, which the randomized campaign in
``tests/service/test_split_merge.py`` replays (at scale in the ``slow``
lane).  Writers that block
on a shard's ``write_gate`` while a split/merge holds it revalidate
their route once the gate is acquired: the table may have been swapped
while they waited, and writing into the now-orphaned shard would lose
the pair, so re-routed pairs are retried against the fresh table.

One :class:`~repro.core.budget.ResourceArbiter` — the router's own,
or the tenant directory's it is handed — divides the service-wide
memory budget across the per-shard adaptation managers and is
rebalanced after every split/merge.

A shard is a replica set of N >= 1 copies with one write path, and it
is provisioned, recovered, split, merged and retired through one path
whatever N is: a :class:`ShardTemplate` turns (position, pairs, logs)
into a shard with one index builder per copy.

With a :class:`~repro.durability.manager.DurabilityManager` attached,
the router is **crash-durable**: every shard carries a per-shard WAL
(appended before acknowledgment — see
:mod:`repro.service.shard`), :meth:`checkpoint` publishes snapshots
and truncates logs, and :meth:`recover` rebuilds the whole service
from disk.  Split/merge then *re-keys* durability too: replacement
shards get fresh logs under the next routing epoch, the CRC-wrapped
manifest is republished as the durable commit point **before** the
in-memory table swap, and an abort at the swap fault point rolls the
manifest back while the write gates are still held — so the durable
and in-memory routing epochs can never diverge across an
acknowledgment.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from bisect import bisect_left
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.budget import MemoryBudget, ResourceArbiter
from repro.durability.log import DurableLog
from repro.durability.manager import DurabilityManager, build_partitioner, manifest_for
from repro.faults.injector import fault_point
from repro.obs.runtime import active_registry, active_tracer
from repro.service.partition import (
    HashPartitioner,
    Key,
    Partitioner,
    PartitionError,
    RangePartitioner,
)
from repro.service.shard import IndexFactory, Pair, Replica, Shard, span_if_traced

# After the shard import: repro.replication builds on repro.service.shard.
from repro.replication.profiles import ReplicaProfile, resolve_profiles
from repro.replication.routing import ReplicaRouter

_DEFAULT_MAX_WORKERS = 8

#: RA004: span-name literal for the fan-out layer.
_ROUTE_SPAN = "service.route"


class ReadOnlyShardError(RuntimeError):
    """A write was routed to a shard whose family has no insert path."""


def _olc_factory(pairs: List[Pair]) -> Any:
    from repro.bptree.olc import OlcBPlusTree

    return OlcBPlusTree.bulk_load(pairs)


def _adaptive_factory(pairs: List[Pair]) -> Any:
    from repro.bptree.hybrid import AdaptiveBPlusTree

    return AdaptiveBPlusTree.bulk_load_adaptive(pairs)


def _dualstage_factory(pairs: List[Pair]) -> Any:
    from repro.dualstage.index import DualStageIndex

    return DualStageIndex.bulk_load(pairs)


def _hybridtrie_factory(pairs: List[Pair]) -> Any:
    from repro.hybridtrie.tree import HybridTrie

    return HybridTrie(pairs)


#: Family name -> bulk-load factory, as used by the harness and benches.
FAMILY_FACTORIES: Dict[str, IndexFactory] = {
    "olc": _olc_factory,
    "adaptive": _adaptive_factory,
    "dualstage": _dualstage_factory,
    "hybridtrie": _hybridtrie_factory,
}

#: Families whose indexes synchronize themselves (no per-shard op lock).
THREAD_SAFE_FAMILIES = frozenset({"olc"})

#: Precomputed ``service.ops.<kind>`` counter names (RA004: telemetry
#: names are literal tables, never formatted on the hot path).
_OPS_COUNTERS = {
    "read": "service.ops.read",
    "write": "service.ops.write",
    "scan": "service.ops.scan",
}


@dataclass(frozen=True)
class ShardTemplate:
    """What every shard of one router is made of: one index builder per
    copy — the family factory, or one ``profile.build_index`` per
    divergence profile — read through a replica router of ``policy``.
    Build, recovery, split and merge all make shards here."""

    builders: Tuple[IndexFactory, ...]
    thread_safe: bool = False
    #: Each copy's divergence profile (None: the family factory builds it).
    profiles: Tuple[Optional[ReplicaProfile], ...] = (None,)
    policy: str = "cost"

    @property
    def replication(self) -> Optional[Dict[str, Any]]:
        """The manifest's ``replicas`` block minus its log ids, or None
        for single-copy shards."""
        if self.profiles[0] is None:
            return None
        names = [getattr(profile, "name", None) for profile in self.profiles]
        return {"factor": len(names), "profiles": names, "policy": self.policy}

    @classmethod
    def resolve(
        cls,
        family: str,
        index_factory: Optional[IndexFactory] = None,
        factor: int = 1,
        profiles: Optional[Sequence[str]] = None,
        policy: str = "cost",
    ) -> "ShardTemplate":
        """Validate what :meth:`ShardRouter.build` was asked for, or
        what a recovered manifest recorded, into a template."""
        if index_factory is None:
            if family not in FAMILY_FACTORIES:
                raise ValueError(
                    f"unknown family {family!r}; expected one of "
                    f"{sorted(FAMILY_FACTORIES)}"
                )
            index_factory = FAMILY_FACTORIES[family]
        thread_safe = family in THREAD_SAFE_FAMILIES
        if factor == 1 and profiles is None:
            return cls((index_factory,), thread_safe)
        if family != "adaptive":
            raise ValueError(
                "replication requires the 'adaptive' family — divergence "
                f"profiles tune its adaptation manager (got {family!r})"
            )
        if factor == 1 and profiles is not None:
            factor = len(profiles)
        resolved = tuple(resolve_profiles(factor, profiles))
        ReplicaRouter(policy=policy)  # rejects an unknown policy
        return cls(
            tuple(profile.build_index for profile in resolved), thread_safe, resolved, policy
        )

    def make(
        self, position: int, pairs: List[Pair], logs: Optional[Sequence[DurableLog]]
    ) -> Shard:
        """One shard over ``pairs``; copy ``i`` logs to ``logs[i]`` if durable."""
        copies = zip(self.builders, self.profiles, logs or itertools.repeat(None))
        return Shard(
            position,
            [
                Replica(copy, build, pairs, self.thread_safe, log, profile)
                for copy, (build, profile, log) in enumerate(copies)
            ],
            ReplicaRouter(policy=self.policy),
        )

    def provision(
        self,
        position: int,
        pairs: List[Pair],
        durability: Optional[DurabilityManager],
        epoch: int,
    ) -> Shard:
        """A fresh shard; when durable, each copy on a new ``epoch`` log."""
        logs = None
        if durability is not None:
            logs = durability.create_logs(epoch, position, pairs, self.replication)
        return self.make(position, pairs, logs)


@dataclass(frozen=True)
class _RoutingTable:
    """An immutable (partitioner, shards) snapshot, swapped atomically."""

    partitioner: Partitioner
    shards: Tuple[Shard, ...]


class ShardRouter:
    """Routes batched index traffic across partitioned shards."""

    def __init__(
        self,
        shards: Sequence[Shard],
        partitioner: Partitioner,
        template: ShardTemplate,
        max_workers: int = _DEFAULT_MAX_WORKERS,
        budget: Optional[MemoryBudget] = None,
        durability: Optional[DurabilityManager] = None,
        epoch: int = 0,
        arbiter: Optional[ResourceArbiter] = None,
        member_prefix: str = "",
    ) -> None:
        if partitioner.num_shards != len(shards):
            raise PartitionError(
                f"partitioner routes to {partitioner.num_shards} shards "
                f"but {len(shards)} were provided"
            )
        if durability is not None:
            for shard in shards:
                if len(shard.logs()) != len(shard.replicas):
                    raise ValueError(
                        "a durable router requires every shard to carry a DurableLog"
                    )
        if arbiter is not None and budget is not None:
            raise ValueError(
                "pass a budget or the arbiter to register into, not both: two "
                "arbiters would install budgets into the same managers"
            )
        self._table = _RoutingTable(partitioner, tuple(shards))
        self._template = template
        self._max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._admin_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self.splits = 0
        self.merges = 0
        self.checkpoints = 0
        #: Durable backing, when attached; ``_epoch`` tracks the routing
        #: epoch the manifest currently names (bumped by split/merge).
        self._durability = durability
        self._epoch = epoch
        #: Summary of the last :meth:`recover` that produced this router.
        self.last_recovery: Optional[Dict[str, Any]] = None
        #: The one arbiter setting these shards' manager budgets; in a
        #: shared one the router owns the ``<member_prefix>shard-<n>`` names.
        self.arbiter = arbiter or ResourceArbiter(budget)
        self._member_prefix = member_prefix
        self._register_shards()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        pairs: Sequence[Pair],
        family: str = "olc",
        num_shards: int = 4,
        partitioning: str = "hash",
        max_workers: int = _DEFAULT_MAX_WORKERS,
        budget: Optional[MemoryBudget] = None,
        index_factory: Optional[IndexFactory] = None,
        durability: Optional[DurabilityManager] = None,
        replication_factor: int = 1,
        replica_profiles: Optional[Sequence[str]] = None,
        replica_routing: str = "cost",
        arbiter: Optional[ResourceArbiter] = None,
        member_prefix: str = "",
    ) -> "ShardRouter":
        """Bulk-load a router from sorted unique pairs.

        ``family`` picks a factory from :data:`FAMILY_FACTORIES` unless
        an explicit ``index_factory`` is given; ``partitioning`` is
        ``"hash"`` or ``"range"`` (range boundaries are chosen
        equi-depth from the loaded keys).  With ``durability``, every
        shard gets a fresh epoch-0 log (base snapshot of its loaded
        pairs) and the routing manifest is published before the router
        is handed out — a crash mid-bootstrap leaves either no manifest
        (re-bootstrap from the same pairs) or a complete one.

        With ``replication_factor > 1`` (or explicit
        ``replica_profiles``) every shard keeps N copies built under
        divergent adaptation profiles, reads routed by modeled cost
        (``replica_routing="cost"``, or ``"round_robin"`` for the
        identical-replica baseline), writes fanned out to per-copy WALs.
        Replication requires the ``"adaptive"`` family — the profiles
        exist to tune its manager.

        ``arbiter`` wires the router into a shared budget arbiter (a
        tenant directory's) instead of a private one over ``budget``;
        its shards register there as ``<member_prefix>shard-<n>``.
        """
        template = ShardTemplate.resolve(
            family, index_factory, replication_factor, replica_profiles, replica_routing
        )
        pairs = list(pairs)
        partitioner: Partitioner
        if partitioning == "hash":
            partitioner = HashPartitioner(num_shards)
        elif partitioning == "range":
            partitioner = RangePartitioner.from_keys(
                [key for key, _ in pairs], num_shards
            )
        else:
            raise ValueError(
                f"unknown partitioning {partitioning!r}; expected 'hash' or 'range'"
            )
        groups: List[List[Pair]] = [[] for _ in range(num_shards)]
        for pair in pairs:
            groups[partitioner.shard_of(pair[0])].append(pair)
        shards = [
            template.provision(position, group, durability, epoch=0)
            for position, group in enumerate(groups)
        ]
        if durability is not None:
            durability.publish_manifest(
                manifest_for(0, partitioner, shards, template.replication)
            )
        return cls(
            shards,
            partitioner,
            template,
            max_workers=max_workers,
            budget=budget,
            durability=durability,
            epoch=0,
            arbiter=arbiter,
            member_prefix=member_prefix,
        )

    @classmethod
    def recover(
        cls,
        durability: DurabilityManager,
        family: str = "olc",
        max_workers: int = _DEFAULT_MAX_WORKERS,
        budget: Optional[MemoryBudget] = None,
        index_factory: Optional[IndexFactory] = None,
    ) -> "ShardRouter":
        """Rebuild a durable router from its on-disk state after a crash.

        Reads the routing manifest (the durable commit point), sweeps
        files no epoch reaches, recovers every log it names — newest
        valid snapshot plus WAL-tail replay, torn final record
        tolerated; among several copies of a shard the highest-LSN one
        is authoritative and stragglers are healed — and makes each
        shard from its recovered pair set as :meth:`build` would.
        ``family`` must fit the manifest: a replicated store is
        ``"adaptive"`` and comes back under the profiles and routing
        policy it recorded.  ``last_recovery`` on the returned router
        summarizes what was replayed, skipped, swept and rebuilt.
        """
        manifest = durability.read_manifest()
        orphans_removed = durability.cleanup_orphans(manifest)
        block = manifest.replicas or {}
        template = ShardTemplate.resolve(
            family,
            index_factory,
            block.get("factor", 1),
            block.get("profiles"),
            block.get("policy", "cost"),
        )
        shards = []
        tally: Counter[str] = Counter()
        for position, log_ids in enumerate(manifest.shard_log_ids()):
            logs, pairs, replayed = durability.recover_shard(log_ids)
            shards.append(template.make(position, pairs, logs))
            tally.update(replayed)
        router = cls(
            shards,
            build_partitioner(manifest.partitioner),
            template,
            max_workers=max_workers,
            budget=budget,
            durability=durability,
            epoch=manifest.epoch,
        )
        router.last_recovery = {
            "epoch": manifest.epoch,
            "num_shards": len(shards),
            "orphans_removed": orphans_removed,
            "replication_factor": block.get("factor", 1),
            **tally,
        }
        return router

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the executor and release log handles (idempotent)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        table = self._table
        for shard in table.shards:
            shard.close_logs()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing primitives
    # ------------------------------------------------------------------
    @property
    def table(self) -> _RoutingTable:
        """The current routing snapshot (atomic attribute read)."""
        return self._table

    @property
    def num_shards(self) -> int:
        """Number of shards currently serving."""
        return len(self._table.shards)

    @property
    def durable(self) -> bool:
        """True when writes go through a WAL (an op may wait on an ``fsync``)."""
        return self._durability is not None

    @property
    def queue_depth(self) -> int:
        """Durable-write sub-batches currently in flight on the executor.

        Reads, scans and non-durable writes run on the caller's thread
        and never count here; a non-zero depth means ``put_many`` calls
        are waiting on per-shard WAL appends.
        """
        return self._inflight

    def shard_for(self, key: Key) -> Shard:
        """The shard currently serving ``key``."""
        table = self._table
        return table.shards[table.partitioner.shard_of(key)]

    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-service",
                )
            return self._executor

    def _run_per_shard(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute per-shard write thunks, pooled only on a durable router.

        A durable sub-batch spends most of its time in the WAL ``fsync``,
        outside the interpreter lock, so several shards' waits overlap
        on the pool.  Without a WAL the work is pure Python and runs
        faster inline on this thread.
        """
        if self._durability is None or self._max_workers <= 0 or len(tasks) <= 1:
            for task in tasks:
                task()
            return
        # A traced request's span lives on *this* thread's stack; re-adopt
        # it on each pool thread so shard spans keep their parent.
        tracer = active_tracer()
        if tracer is not None:
            parent = tracer.current()
            if parent is not None:
                tasks = [tracer.adopting(parent, task) for task in tasks]
        with self._inflight_lock:
            self._inflight += len(tasks)
        registry = active_registry()
        if registry is not None:
            registry.gauge("service.queue_depth").set(self._inflight)
        try:
            futures: List[Future[None]] = [
                self._pool().submit(task) for task in tasks
            ]
            wait(futures)
            for future in futures:
                exception = future.exception()
                if exception is not None:
                    raise exception
        finally:
            with self._inflight_lock:
                self._inflight -= len(tasks)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: Key) -> Optional[int]:
        """The value under ``key``, or None."""
        with span_if_traced(_ROUTE_SPAN, op="get", fanout=1):
            return self.shard_for(key).get(key)

    def get_many(self, keys: Sequence[Key]) -> List[Optional[int]]:
        """Values aligned with ``keys``; one sub-batch per shard, inline."""
        keys = list(keys)
        if not keys:
            return []
        table = self._table
        shards = table.shards
        if len(shards) == 1:
            with span_if_traced(_ROUTE_SPAN, op="get_many", count=len(keys), fanout=1):
                results = shards[0].get_many(keys)
        else:
            # Grouped by the snapshot's own partitioner, so the positions
            # index ``table.shards`` even if a split/merge swaps the table.
            groups = table.partitioner.group(keys)
            results = [None] * len(keys)
            with span_if_traced(
                _ROUTE_SPAN, op="get_many", count=len(keys), fanout=len(groups)
            ):
                for shard_id, positions in groups.items():
                    values = shards[shard_id].get_many(
                        [keys[position] for position in positions]
                    )
                    for position, value in zip(positions, values):
                        results[position] = value
        self._count_ops("read", len(keys))
        return results

    def scan(self, start_key: Key, count: int) -> List[Pair]:
        """Up to ``count`` pairs in key order starting at ``start_key``.

        Range partitions concatenate shard results in shard order; hash
        partitions scan every shard and k-way merge.
        """
        if count <= 0:
            return []
        table = self._table
        shards = table.shards
        if len(shards) == 1:
            with span_if_traced(_ROUTE_SPAN, op="scan", count=count, fanout=1):
                result = shards[0].scan(start_key, count)
        elif table.partitioner.ordered:
            result = []
            first = table.partitioner.shard_of(start_key)
            with span_if_traced(
                _ROUTE_SPAN, op="scan", count=count, fanout=len(shards) - first
            ):
                for shard in shards[first:]:
                    need = count - len(result)
                    if need <= 0:
                        break
                    result.extend(shard.scan(start_key, need))
        else:
            with span_if_traced(
                _ROUTE_SPAN, op="scan", count=count, fanout=len(shards)
            ):
                per_shard = [shard.scan(start_key, count) for shard in shards]
            merged = heapq.merge(*per_shard, key=itemgetter(0))
            result = list(itertools.islice(merged, count))
        self._count_ops("scan", 1)
        return result

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: Key, value: int) -> None:
        """Upsert one pair."""
        table = self._table
        with span_if_traced(_ROUTE_SPAN, op="put", fanout=1):
            self._write_group(
                table.shards[table.partitioner.shard_of(key)], [(key, value)], table
            )
        self._count_ops("write", 1)

    def put_many(self, pairs: Sequence[Pair]) -> None:
        """Upsert a batch; sub-batches run per shard in input order."""
        pairs = list(pairs)
        if not pairs:
            return
        table = self._table
        shards = table.shards
        if len(shards) == 1:
            with span_if_traced(
                _ROUTE_SPAN, op="put_many", count=len(pairs), fanout=1
            ):
                self._write_group(shards[0], pairs, table)
        else:
            groups = table.partitioner.group([key for key, _ in pairs])
            with span_if_traced(
                _ROUTE_SPAN, op="put_many", count=len(pairs), fanout=len(groups)
            ):
                self._run_per_shard(
                    [
                        partial(
                            self._write_group,
                            shards[shard_id],
                            [pairs[position] for position in positions],
                            table,
                        )
                        for shard_id, positions in groups.items()
                    ]
                )
        self._count_ops("write", len(pairs))

    def _write_group(
        self, shard: Shard, group: List[Pair], table: _RoutingTable
    ) -> None:
        """Write ``group`` through ``shard``'s write gate, revalidating
        the route once the gate is held.

        ``table`` is the routing snapshot that sent these pairs to
        ``shard``, but a concurrent split/merge holds the gate for its
        whole build-aside+swap — a writer that blocked on the gate may
        wake up *after* the table swap, when ``shard`` is an orphaned
        index no table routes to any more.  Writing there would silently
        lose the pairs.  So after acquiring the gate the current table is
        re-read: while it is still ``table`` every pair stays (the
        common case costs one identity check); after a swap, pairs it
        still routes to ``shard`` land here, and the rest are regrouped
        against the fresh table and retried.
        """
        worklist: List[Tuple[Shard, List[Pair], _RoutingTable]] = [(shard, group, table)]
        while worklist:
            shard, group, table = worklist.pop()
            self._check_writable(shard)
            moved: List[Pair] = []
            with shard.write_gate:
                current = self._table
                still = group
                if current is not table:
                    shard_of = current.partitioner.shard_of
                    still = []
                    for pair in group:
                        if current.shards[shard_of(pair[0])] is shard:
                            still.append(pair)
                        else:
                            moved.append(pair)
                if still:
                    shard.put_many(still)
            if moved:
                # The swap may have scattered the group across several
                # new shards; retries are rare and small, so re-fan-out
                # serially on this thread.
                table = self._table
                regrouped = table.partitioner.group([key for key, _ in moved])
                for position, indexes in regrouped.items():
                    worklist.append(
                        (table.shards[position], [moved[i] for i in indexes], table)
                    )

    def delete(self, key: Key) -> bool:
        """Remove ``key``; False when it was absent."""
        with span_if_traced(_ROUTE_SPAN, op="delete", fanout=1):
            while True:
                shard = self.shard_for(key)
                self._check_writable(shard)
                with shard.write_gate:
                    # Same revalidation as _write_group: a split/merge may
                    # have swapped the table while we waited on the gate.
                    current = self._table
                    if current.shards[current.partitioner.shard_of(key)] is shard:
                        removed = shard.delete(key)
                        break
        self._count_ops("write", 1)
        return removed

    @staticmethod
    def _check_writable(shard: Shard) -> None:
        if not shard.supports_writes:
            raise ReadOnlyShardError(
                f"shard wraps a read-only family "
                f"({type(shard.replicas[0].index).__name__})"
            )

    # ------------------------------------------------------------------
    # Online split / merge (build-aside + swap)
    # ------------------------------------------------------------------
    def split_shard(self, shard_id: int, at_key: Optional[Key] = None) -> Key:
        """Split one range shard in two at ``at_key`` (default: median).

        Writes to the shard are frozen for the duration; reads keep
        flowing on every copy (each takes only its own operation lock).
        A failure at any ``service.split.*`` fault point aborts with the
        old routing table still serving — no key is ever lost.  Both
        successors are built whole: every copy of each is bulk-loaded by
        its own builder from the authoritative copy, so a copy that was
        down comes back healed.  Returns the split key actually used.
        """
        with self._admin_lock:
            table = self._table
            self._check_shard_id(table, shard_id)
            shard = table.shards[shard_id]
            with shard.write_gate:
                fault_point("service.split.collect")
                pairs = shard.items()
                split_key = at_key if at_key is not None else self._median_key(pairs)
                # Validates the key against the shard's range (raises
                # PartitionError on hash partitions or a bad boundary).
                new_partitioner = table.partitioner.split(shard_id, split_key)
                fault_point("service.split.build")
                cut = bisect_left(pairs, (split_key,))
                halves = [pairs[:cut], pairs[cut:]]
                with self._replacing(
                    table, new_partitioner, shard_id, [shard], halves
                ) as shards:
                    fault_point("service.split.swap")
                    self._install(new_partitioner, shards)
            self.splits += 1
            self._publish_admin_metrics("service.splits")
            return split_key

    def merge_shards(self, left_id: int) -> None:
        """Merge range shards ``left_id`` and ``left_id + 1`` into one.

        Same discipline as :meth:`split_shard`: both shards are
        write-frozen, the merged replacement is built aside, and one
        table swap publishes it; a fault before the swap changes
        nothing.
        """
        with self._admin_lock:
            table = self._table
            self._check_shard_id(table, left_id)
            # Validates adjacency and raises on hash partitions.
            new_partitioner = table.partitioner.merge(left_id)
            left, right = table.shards[left_id], table.shards[left_id + 1]
            # Both gates before any copy's op lock (items() takes those):
            # gates rank above op locks in the hierarchy (RA006).
            with left.write_gate, right.write_gate:
                fault_point("service.merge.collect")
                pairs = left.items() + right.items()
                fault_point("service.merge.build")
                with self._replacing(
                    table, new_partitioner, left_id, [left, right], [pairs]
                ) as shards:
                    fault_point("service.merge.swap")
                    self._install(new_partitioner, shards)
            self.merges += 1
            self._publish_admin_metrics("service.merges")

    @contextmanager
    def _replacing(
        self,
        table: _RoutingTable,
        new_partitioner: Partitioner,
        position: int,
        retired: Sequence[Shard],
        groups: Sequence[List[Pair]],
    ) -> Iterator[Tuple[Shard, ...]]:
        """The skeleton split and merge share: build aside, commit, let
        the caller swap, then retire — or roll back.

        One successor per pair group is built aside from ``position`` on
        (each copy on a fresh next-epoch log) in place of the adjacent
        ``retired`` shards; the new shard tuple is yielded for the
        caller to cross its swap fault point and :meth:`_install`.  On
        a durable router that block runs inside the manager's
        ``epoch_swap``: the next epoch's manifest is published *before*
        the in-memory swap, while the caller's gates still block every
        acknowledgment, and rolled back if the block raises.
        """
        epoch = self._epoch + 1
        successors = tuple(
            self._template.provision(position + offset, group, self._durability, epoch)
            for offset, group in enumerate(groups)
        )
        shards = (
            table.shards[:position]
            + successors
            + table.shards[position + len(retired) :]
        )
        if self._durability is None:
            yield shards
            return
        block = self._template.replication
        with self._durability.epoch_swap(
            undo=manifest_for(self._epoch, table.partitioner, table.shards, block),
            commit=manifest_for(epoch, new_partitioner, shards, block),
            born=[log for shard in successors for log in shard.logs()],
            retired=[log for shard in retired for log in shard.logs()],
        ):
            yield shards
        self._epoch = epoch

    # ------------------------------------------------------------------
    # Durability admin (checkpointing)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot every durable shard and truncate its WAL.

        Runs under ``_admin_lock`` (serialized with split/merge); each
        shard is frozen just long enough to collect its pairs at a
        known LSN — shards are checkpointed one at a time, so writers
        on other shards keep flowing.  Returns a per-shard summary.
        """
        if self._durability is None:
            raise RuntimeError("checkpoint() requires a durable router")
        summaries: List[Dict[str, Any]] = []
        with self._admin_lock:
            table = self._table
            for position, shard in enumerate(table.shards):
                with shard.write_gate:
                    entries = shard.checkpoint_logs()
                for entry in entries:
                    summaries.append({"position": position, **entry})
            self.checkpoints += 1
            self._publish_admin_metrics("service.checkpoints")
        return {"epoch": self._epoch, "shards": summaries}

    def _install(self, partitioner: Partitioner, shards: Tuple[Shard, ...]) -> None:
        # Never mutate shard objects here: they are shared with the
        # still-published old table, so renumbering them in place would
        # let concurrent stats()/arbiter readers observe torn ids.
        # Routing positions are derived from the table index instead.
        self._table = _RoutingTable(partitioner, shards)
        self._register_shards()

    @staticmethod
    def _check_shard_id(table: _RoutingTable, shard_id: int) -> None:
        if not 0 <= shard_id < len(table.shards):
            raise PartitionError(
                f"shard id {shard_id} outside [0, {len(table.shards)})"
            )

    @staticmethod
    def _median_key(pairs: List[Pair]) -> Key:
        """The first key of the upper half — a valid right-shard start."""
        if len(pairs) < 2:
            raise PartitionError("cannot split a shard with fewer than two keys")
        candidate = pairs[len(pairs) // 2][0]
        if candidate == pairs[0][0]:  # pragma: no cover - duplicate guard
            raise PartitionError("no interior split key exists")
        return candidate

    # ------------------------------------------------------------------
    # Budget arbitration
    # ------------------------------------------------------------------
    def _register_shards(self) -> None:
        """(Re-)register this router's members — and only them — in its
        arbiter, which then rebalances every manager it governs."""
        group = f"{self._member_prefix}shard-"
        self.arbiter.replace_group(
            group,
            {
                f"{group}{position}": index
                for position, shard in enumerate(self._table.shards)
                for index in shard.budget_members()
            },
        )

    # ------------------------------------------------------------------
    # Introspection and metrics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(shard.num_keys for shard in self._table.shards)

    def imbalance(self) -> float:
        """Largest shard's key count over the mean (1.0 = balanced)."""
        counts = [shard.num_keys for shard in self._table.shards]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        return max(counts) / mean

    def counter_snapshots(self) -> Dict[int, Dict[str, int]]:
        """Per-shard structural counter events (for the cost model),
        keyed by the shard's position in the current routing table."""
        return {
            position: shard.counter_snapshot()
            for position, shard in enumerate(self._table.shards)
        }

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe summary of the whole service."""
        self._publish_shape_gauges()
        table = self._table
        return {
            "partitioner": table.partitioner.describe(),
            "num_shards": len(table.shards),
            "num_keys": len(self),
            "size_bytes": sum(shard.size_bytes() for shard in table.shards),
            "imbalance": round(self.imbalance(), 4),
            "splits": self.splits,
            "merges": self.merges,
            "durable": self._durability is not None,
            "epoch": self._epoch,
            "checkpoints": self.checkpoints,
            "queue_depth": self.queue_depth,
            "budget": self.arbiter.describe()["memory"],
            "shards": [
                {**shard.stats(), "shard_id": position}
                for position, shard in enumerate(table.shards)
            ],
        }

    def verify(self) -> None:
        """Verify every shard and the routing discipline itself.

        Each shard's structural self-verification runs, and every key is
        checked to live on the shard the partitioner routes it to.
        """
        table = self._table
        for position, shard in enumerate(table.shards):
            shard.verify()
            for key, _ in shard.items():
                routed = table.partitioner.shard_of(key)
                if routed != position:
                    from repro.core.invariants import InvariantViolation

                    raise InvariantViolation(
                        f"key {key!r} lives on shard {position} but "
                        f"routes to shard {routed}"
                    )

    def _count_ops(self, kind: str, amount: int) -> None:
        registry = active_registry()
        if registry is not None:
            registry.counter(_OPS_COUNTERS[kind]).inc(amount)

    def _publish_admin_metrics(self, counter_name: str) -> None:
        registry = active_registry()
        if registry is None:
            return
        registry.counter(counter_name).inc()
        self._publish_shape_gauges()

    def _publish_shape_gauges(self) -> None:
        """Shard count and imbalance, published after each admin operation
        (every ``_install`` caller ends in :meth:`_publish_admin_metrics`)
        and on ``stats()`` — never per data call: ``imbalance()`` walks
        every shard."""
        registry = active_registry()
        if registry is not None:
            registry.gauge("service.shards").set(self.num_shards)
            registry.gauge("service.imbalance").set(self.imbalance())
