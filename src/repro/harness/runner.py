"""Workload execution and interval-series collection.

``run_operations`` drives an operation stream against an index adapter
and snapshots, every ``interval_ops`` operations:

* modeled ns/op — the cost model priced over the counter events of the
  interval (structural work of real executed operations, including
  sampling, classification, and migration overhead, exactly as the
  paper's measurements include them);
* wall-clock ns/op — honest Python time, reported alongside;
* index and sampling-framework sizes, and cumulative migrations.

Adapters bridge key conventions: :class:`IntKeyIndexAdapter` for the
integer-keyed B+-trees and the dual-stage baseline,
:class:`ByteKeyIndexAdapter` for the tries (operations then carry key
*ranks* into a byte-key array).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.manager import AdaptationManager
from repro.obs.metrics import COST_NS_BUCKETS, SIZE_BUCKETS
from repro.obs.runtime import active_registry, active_tracer
from repro.sim.costmodel import CostModel
from repro.workloads.spec import OpKind
from repro.workloads.stream import Operation


@dataclass(frozen=True)
class IntervalStats:
    """One measurement interval."""

    interval: int
    operations: int
    modeled_ns_per_op: float
    wall_ns_per_op: float
    index_bytes: int
    aux_bytes: int          # sampling framework footprint
    expansions: int         # cumulative
    compactions: int        # cumulative
    skip_length: Optional[int] = None
    adaptation_phases: int = 0


@dataclass
class RunResult:
    """Full run: interval series plus totals."""

    intervals: List[IntervalStats] = field(default_factory=list)
    total_operations: int = 0
    total_modeled_ns: float = 0.0
    total_wall_ns: float = 0.0
    final_index_bytes: int = 0
    final_aux_bytes: int = 0

    @property
    def modeled_ns_per_op(self) -> float:
        """Average modeled nanoseconds per operation."""
        if self.total_operations == 0:
            return 0.0
        return self.total_modeled_ns / self.total_operations

    @property
    def wall_ns_per_op(self) -> float:
        """Average wall-clock nanoseconds per operation."""
        if self.total_operations == 0:
            return 0.0
        return self.total_wall_ns / self.total_operations

    @property
    def final_total_bytes(self) -> int:
        """Final index plus sampling-framework bytes."""
        return self.final_index_bytes + self.final_aux_bytes

    def series(self, attribute: str) -> List[float]:
        """One interval-series attribute as a list."""
        return [getattr(stats, attribute) for stats in self.intervals]


def cost_events(index) -> Dict[str, int]:
    """Every event the cost model prices for ``index``: its own counters
    plus, when it adapts, the manager's bookkeeping (heap operations,
    classified items, sample tracking, and a Bloom check per sample
    while the filter is on)."""
    events = index.counters.snapshot()
    manager: Optional[AdaptationManager] = index.manager
    if manager is not None:
        managed = manager.counters
        events["heap_op"] = events.get("heap_op", 0) + managed.heap_operations
        events["classify_item"] = events.get("classify_item", 0) + managed.classified_items
        events["sample_track"] = events.get("sample_track", 0) + managed.map_updates
        if manager.config.use_bloom_filter:
            events["bloom_check"] = events.get("bloom_check", 0) + managed.sampled
    return events


class _BaseAdapter:
    """Counter plumbing shared by the adapters."""

    def __init__(self, index) -> None:
        self.index = index
        self._manager: Optional[AdaptationManager] = index.manager

    # -- counters -------------------------------------------------------
    def counter_snapshot(self) -> Dict[str, int]:
        """All counter events as a dict (tree + manager)."""
        return cost_events(self.index)

    # -- sizes and migrations --------------------------------------------
    def index_bytes(self) -> int:
        """Modeled index size in bytes."""
        return self.index.size_bytes()

    def aux_bytes(self) -> int:
        """Modeled sampling-framework size in bytes."""
        return self._manager.size_bytes() if self._manager is not None else 0

    def expansions(self) -> int:
        """Manager-driven expansions plus the tree's eager insert
        expansions — both are encoding migrations toward the fast end."""
        if self._manager is None:
            return 0
        counters = self._manager.counters
        return counters.expansions + counters.eager_expansions

    def compactions(self) -> int:
        """Cumulative compactions."""
        return self._manager.counters.compactions if self._manager is not None else 0

    def skip_length(self) -> Optional[int]:
        """The current skip length."""
        return self._manager.skip_length if self._manager is not None else None

    def adaptation_phases(self) -> int:
        """Adaptation phases completed so far."""
        return (
            self._manager.counters.adaptation_phases if self._manager is not None else 0
        )

    @property
    def manager(self) -> Optional[AdaptationManager]:
        """The adaptation manager, if this index has one."""
        return self._manager


class IntKeyIndexAdapter(_BaseAdapter):
    """Adapter for integer-keyed indexes (B+-trees, dual-stage)."""

    def execute(self, op: Operation) -> None:
        """Run one operation against the wrapped index."""
        if op.kind is OpKind.READ:
            self.index.lookup(op.key)
        elif op.kind is OpKind.SCAN:
            self.index.scan(op.key, op.scan_length)
        elif op.kind is OpKind.INSERT:
            self.index.insert(op.key, op.value)
        elif op.kind is OpKind.UPDATE:
            if not self.index.update(op.key, op.value):
                self.index.insert(op.key, op.value)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unsupported operation kind {op.kind}")


class ByteKeyIndexAdapter(_BaseAdapter):
    """Adapter for byte-keyed tries; operation keys are ranks into
    ``byte_keys`` (read-only workloads: the tries are static)."""

    def __init__(self, index, byte_keys: Sequence[bytes]) -> None:
        super().__init__(index)
        self.byte_keys = byte_keys

    def execute(self, op: Operation) -> None:
        """Run one operation against the wrapped index."""
        key = self.byte_keys[op.key % len(self.byte_keys)]
        if op.kind is OpKind.READ:
            self.index.lookup(key)
        elif op.kind is OpKind.SCAN:
            self.index.scan(key, op.scan_length)
        else:
            raise ValueError(f"tries do not support {op.kind} operations")


def run_operations(
    adapter: _BaseAdapter,
    operations: Sequence[Operation],
    cost_model: Optional[CostModel] = None,
    interval_ops: int = 10_000,
    result: Optional[RunResult] = None,
) -> RunResult:
    """Execute ``operations``; append interval stats to ``result``.

    Pass the same ``result`` across phases to build multi-phase
    timelines (Figures 12, 16, 20).
    """
    cost_model = cost_model or CostModel()
    result = result if result is not None else RunResult()
    interval_index = len(result.intervals)
    position = 0
    total = len(operations)
    tracer = active_tracer()
    registry = active_registry()
    while position < total:
        chunk = operations[position : position + interval_ops]
        span = (
            tracer.start(
                "harness.interval", interval=interval_index, operations=len(chunk)
            )
            if tracer is not None
            else None
        )
        before = adapter.counter_snapshot()
        wall_start = time.perf_counter_ns()
        for op in chunk:
            adapter.execute(op)
        wall_ns = time.perf_counter_ns() - wall_start
        after = adapter.counter_snapshot()
        events = _diff(after, before)
        modeled_ns = cost_model.price(events)
        stats = IntervalStats(
            interval=interval_index,
            operations=len(chunk),
            modeled_ns_per_op=modeled_ns / len(chunk),
            wall_ns_per_op=wall_ns / len(chunk),
            index_bytes=adapter.index_bytes(),
            aux_bytes=adapter.aux_bytes(),
            expansions=adapter.expansions(),
            compactions=adapter.compactions(),
            skip_length=adapter.skip_length(),
            adaptation_phases=adapter.adaptation_phases(),
        )
        if span is not None:
            tracer.end(
                span,
                modeled_ns_per_op=round(stats.modeled_ns_per_op, 1),
                index_bytes=stats.index_bytes,
                expansions=stats.expansions,
                compactions=stats.compactions,
            )
        if registry is not None:
            # Hot-path OpCounters are pulled, not pushed: one publish per
            # interval instead of a registry call per event.  Interval
            # *deltas* are added (not absolute totals) so several adapters
            # sharing one registry aggregate instead of clashing.
            for event, delta in events.items():
                # repro: ignore[RA004] -- republishing helper: event names come
                # from index OpCounters, so the set is open-ended by design.
                registry.counter(f"ops.{event}").inc(delta)
            registry.counter("harness.operations").inc(len(chunk))
            registry.gauge("harness.index_bytes").set(stats.index_bytes)
            registry.gauge("harness.aux_bytes").set(stats.aux_bytes)
            registry.histogram("harness.interval_ops", SIZE_BUCKETS).record(
                len(chunk)
            )
            registry.histogram(
                "harness.modeled_ns_per_op", COST_NS_BUCKETS
            ).record(stats.modeled_ns_per_op)
        result.intervals.append(stats)
        result.total_operations += len(chunk)
        result.total_modeled_ns += modeled_ns
        result.total_wall_ns += wall_ns
        interval_index += 1
        position += interval_ops
    result.final_index_bytes = adapter.index_bytes()
    result.final_aux_bytes = adapter.aux_bytes()
    return result


def _diff(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    events = {}
    for name, count in after.items():
        delta = count - before.get(name, 0)
        if delta:
            events[name] = delta
    return events
