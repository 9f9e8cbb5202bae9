"""The adaptation manager: sampling, classification, and migration driver.

A hybrid index owns one :class:`AdaptationManager` and interacts with it
exactly as in the paper's Listing 1:

* on every access it asks :meth:`AdaptationManager.is_sample`, and if so,
  forwards the touched unit via :meth:`AdaptationManager.track`;
* the manager aggregates sampled accesses per unit (epoch-tagged, behind a
  Bloom filter), and when the phase's sample size is reached it runs the
  adaptation phase: top-k hot/cold classification, CSHF evaluation, and
  encoding migrations through the index's callback interface;
* between phases it adapts the skip length (workload stability) and the
  sample size (Equation 1 with the budget-derived k).

The index side of the contract is the :class:`AdaptiveIndex` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, Optional, Protocol, Sequence

from repro.core.access import AccessStats, AccessType, Classification
from repro.core.bloom import BloomFilter
from repro.core.budget import MemoryBudget, estimate_expandable_k
from repro.core.events import AdaptationEvent, EventLog
from repro.core.heuristics import (
    BUDGET_EXPAND_CEILING,
    Heuristic,
    HeuristicAction,
    HeuristicInput,
    make_threshold_heuristic,
)
from repro.core.sampling import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    SKIP_MAX,
    SKIP_MIN,
    adjust_skip_length,
    required_sample_size,
)
from repro.core.topk import TopKClassifier
from repro.obs.metrics import SIZE_BUCKETS, MetricsRegistry
from repro.obs.runtime import active_registry, active_tracer

#: Without a bounded budget there is no k estimate: k is this share of
#: the population, but at least :data:`FALLBACK_K_MIN` units.
FALLBACK_HOT_FRACTION = 0.01
FALLBACK_K_MIN = 64

#: Degradation when migrations *raise* (allocation failure, injected
#: fault): a failed unit waits ``RETRY_BACKOFF_BASE * 2**(streak - 1)``
#: phases, at most ``RETRY_BACKOFF_CAP``, before its retry, and is
#: quarantined after ``MAX_MIGRATION_RETRIES`` consecutive failures.
MAX_MIGRATION_RETRIES = 3
RETRY_BACKOFF_BASE = 1
RETRY_BACKOFF_CAP = 8
#: Lifetime migration failures after which the manager stops adapting.
DISABLE_AFTER_FAILURES = 25


def _encoding_name(encoding: object) -> str:
    """Lowercase span-safe name of one encoding (enum value or str)."""
    return str(getattr(encoding, "value", encoding)).lower()


def _migration_span_name(source: object, target: object) -> str:
    """The ``migration:<src>-><dst>`` span name of the trace taxonomy."""
    return f"migration:{_encoding_name(source)}->{_encoding_name(target)}"


class AdaptiveIndex(Protocol):
    """Callback interface a hybrid index implements for its manager:
    three adaptive-only callbacks plus ``size_bytes``/``num_keys``/
    ``encoding_census`` from the index contract
    (:class:`~repro.obs.introspect.IndexFamily`)."""

    def tracked_population(self) -> int:
        """Number of trackable basic units (n in Equation 1)."""

    def size_bytes(self) -> int:
        """Modeled index size in bytes."""

    @property
    def num_keys(self) -> int:
        """Number of indexed keys (for relative budgets)."""

    def encoding_of(self, identifier: Hashable) -> object:
        """Current encoding of one unit (None if the unit vanished)."""

    def migrate(self, identifier: Hashable, target_encoding: object, context: object) -> bool:
        """Re-encode one unit; return True iff a migration happened."""

    def encoding_census(self) -> Dict[object, tuple]:
        """Mapping encoding -> (count, average_bytes) for the k estimate."""


@dataclass
class ManagerConfig:
    """Tunables of the adaptation manager.

    ``encoding_order`` lists encodings from most compact to fastest; it
    determines both the default CSHF (compact end vs fast end) and whether
    a migration counts as an expansion or a compaction.

    Failed migrations back off and are quarantined as the module's
    ``MAX_MIGRATION_RETRIES`` / ``RETRY_BACKOFF_*`` constants say; once
    the total failure count reaches ``DISABLE_AFTER_FAILURES`` the
    manager disables adaptation entirely — the index keeps serving
    traffic on its current (static) layout.
    """

    encoding_order: Sequence[object] = ()
    budget: MemoryBudget = field(default_factory=MemoryBudget.unbounded)
    heuristic: Optional[Heuristic] = None
    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA
    initial_skip_length: int = SKIP_MIN
    skip_min: int = SKIP_MIN
    skip_max: int = SKIP_MAX
    adaptive_skip: bool = True
    use_bloom_filter: bool = True
    initial_sample_size: Optional[int] = None
    max_sample_size: int = 200_000

    def __post_init__(self) -> None:
        if len(self.encoding_order) < 2:
            raise ValueError("encoding_order needs at least a compact and a fast encoding")
        if self.skip_min > self.skip_max:
            raise ValueError(f"skip_min {self.skip_min} > skip_max {self.skip_max}")
        if self.skip_min < 0:
            raise ValueError(f"skip_min must be >= 0, got {self.skip_min}")
        if not self.skip_min <= self.initial_skip_length <= self.skip_max:
            raise ValueError(
                f"initial_skip_length {self.initial_skip_length} outside "
                f"[{self.skip_min}, {self.skip_max}]"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.max_sample_size < 1:
            raise ValueError(f"max_sample_size must be >= 1, got {self.max_sample_size}")

    @property
    def compact_encoding(self) -> object:
        """The most compact encoding in the order."""
        return self.encoding_order[0]

    @property
    def fast_encoding(self) -> object:
        """The fastest encoding in the order."""
        return self.encoding_order[-1]


@dataclass
class ManagerCounters:
    """The one tally of every adaptation fact, cumulative over the
    manager's life: what it sampled and classified (the bookkeeping the
    cost model prices), what it migrated, and what the index's eager
    expansion on insert did.  A phase's :class:`AdaptationEvent` carries
    the deltas of these counters over that phase.

    ``accesses`` counts the gate evaluations this manager saw.  The
    ``sample_check`` :class:`~repro.sim.counters.OpCounters` event is a
    different fact: the index charges it per access it prices, and a
    non-adaptive Hybrid Trie charges it without asking any manager.

    Eager failures are not ``migration_failures``: they never count
    toward :data:`DISABLE_AFTER_FAILURES`.
    """

    accesses: int = 0
    sampled: int = 0
    bloom_rejections: int = 0
    map_updates: int = 0
    adaptation_phases: int = 0
    heap_operations: int = 0
    classified_items: int = 0
    expansions: int = 0
    compactions: int = 0
    evictions: int = 0
    migration_failures: int = 0
    migration_retries: int = 0
    quarantined_units: int = 0
    eager_expansions: int = 0          # units expanded on insert
    eager_expansions_refused: int = 0  # refused for lack of budget headroom
    eager_expansion_failures: int = 0  # eager migrations that raised


class AdaptationManager:
    """Centralized workload tracking and encoding adaptation."""

    def __init__(self, index: AdaptiveIndex, config: ManagerConfig) -> None:
        self._index = index
        self.config = config
        self._heuristic = config.heuristic or make_threshold_heuristic(
            fast_encoding=config.fast_encoding,
            compact_encoding=config.compact_encoding,
        )
        # Listing 1's countdown, reloaded from the skip length.
        self._skip_length = config.initial_skip_length
        self._countdown = config.initial_skip_length
        self._samples: Dict[Hashable, AccessStats] = {}
        self._epoch = 1
        self._sampled_this_phase = 0
        self._enabled = True
        self._failure_streaks: Dict[Hashable, int] = {}  # consecutive failures
        self._retry_at: Dict[Hashable, int] = {}         # epoch gating the retry
        self._quarantined: set = set()
        self._degraded = False
        self.counters = ManagerCounters()
        self._last_phase = ManagerCounters()  # the counters as the last phase ended
        self.events = EventLog()
        self._sample_size = self._initial_sample_size()
        self._filter = self._new_filter()
        self._encoding_rank = {
            encoding: rank for rank, encoding in enumerate(config.encoding_order)
        }

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def is_sample(self) -> bool:
        """Per-access gate (Listing 1); True when the access should be
        tracked.  Skip counting (Vitter): a countdown reloaded from the
        skip length, so every ``skip_length + 1``-th access is a sample
        (``0`` samples every access) and a new skip length takes effect
        at the next reload."""
        self.counters.accesses += 1
        if not self._enabled:
            return False
        countdown = self._countdown
        self._countdown = countdown - 1 if countdown else self._skip_length
        return not countdown

    def track(
        self,
        identifier: Hashable,
        access_type: AccessType,
        context: object = None,
    ) -> None:
        """Register one sampled access to ``identifier``.

        With the Bloom filter enabled, the first sighting of a unit within
        a phase only sets filter bits; the unit enters the aggregate map on
        its second sighting.  Reaching the phase's sample size triggers the
        adaptation phase synchronously (its cost is thereby part of the
        workload, as in the paper's measurements).
        """
        self.counters.sampled += 1
        self._sampled_this_phase += 1
        stats = self._samples.get(identifier)
        if stats is None:
            if self.config.use_bloom_filter and not self._filter.add_and_check(identifier):
                self.counters.bloom_rejections += 1
                self._maybe_adapt()
                return
            stats = AccessStats()
            self._samples[identifier] = stats
        stats.record(access_type, self._epoch)
        if context is not None:
            stats.context = context
        self.counters.map_updates += 1
        self._maybe_adapt()

    def register(self, identifier: Hashable, context: object = None) -> None:
        """Ensure a unit is tracked without recording a sampled access.

        Used for units the index mutated out-of-band (e.g. leaves eagerly
        expanded on insert): they enter the map with zero counters, so the
        next classifications see them cold and compact them again.
        """
        stats = self._samples.get(identifier)
        if stats is None:
            stats = AccessStats()
            self._samples[identifier] = stats
        if context is not None:
            stats.context = context

    def update_context(self, identifier: Hashable, context: object) -> None:
        """Propagate changed context (e.g. a leaf's new parent after a split)."""
        stats = self._samples.get(identifier)
        if stats is not None:
            stats.context = context

    def forget(self, identifier: Hashable) -> None:
        """Drop a unit that no longer exists (deleted / split away)."""
        self._samples.pop(identifier, None)
        self._failure_streaks.pop(identifier, None)
        self._retry_at.pop(identifier, None)
        self._quarantined.discard(identifier)

    # ------------------------------------------------------------------
    # Adaptation phase
    # ------------------------------------------------------------------
    def run_adaptation(self) -> AdaptationEvent:
        """Classify, migrate, adapt parameters, and advance the epoch.

        Normally invoked automatically when the sample size is reached, but
        public so trained/offline flows and tests can force a phase.
        """
        tracer = active_tracer()
        phase_span = (
            tracer.start("adaptation_phase", epoch=self._epoch)
            if tracer is not None
            else None
        )
        k = self._choose_k()
        if tracer is not None:
            with tracer.span("classify", k=k, candidates=len(self._samples)) as span:
                hot_items = self._classify(k)
                span.set(hot=len(hot_items))
        else:
            hot_items = self._classify(k)
        counters = self.counters
        before = self._last_phase
        self._apply_heuristic(hot_items)
        expansions = counters.expansions - before.expansions
        compactions = counters.compactions - before.compactions

        if (
            not self._degraded
            and counters.migration_failures >= DISABLE_AFTER_FAILURES
        ):
            # Too many failed migrations overall: stop adapting and keep
            # serving the workload on the current (now static) layout.
            self._degraded = True
            self.disable()

        skip_before = self._skip_length
        if self.config.adaptive_skip:
            self._skip_length = adjust_skip_length(
                current=skip_before,
                migrated=expansions + compactions,
                sampled=max(1, self._sampled_this_phase),
                skip_min=self.config.skip_min,
                skip_max=self.config.skip_max,
            )
        self._sample_size = self._next_sample_size(k)

        event = AdaptationEvent(
            epoch=self._epoch,
            accesses_seen=counters.accesses,
            sampled=self._sampled_this_phase,
            unique_tracked=len(self._samples),
            hot=len(hot_items),
            expansions=expansions,
            compactions=compactions,
            evictions=counters.evictions - before.evictions,
            skip_length_before=skip_before,
            skip_length_after=self._skip_length,
            sample_size_after=self._sample_size,
            index_bytes=self._index.size_bytes(),
            migration_failures=counters.migration_failures - before.migration_failures,
            retries=counters.migration_retries - before.migration_retries,
            quarantined=counters.quarantined_units - before.quarantined_units,
            adaptation_disabled=self._degraded,
        )
        self.events.append(event)

        counters.adaptation_phases += 1
        self._last_phase = replace(counters)
        self._epoch += 1
        self._sampled_this_phase = 0
        self._filter.reset()
        if phase_span is not None:
            # The span carries the event's canonical serialization — the
            # same as_dict() path the timeline exports use.
            tracer.end(phase_span, **event.as_dict())
        registry = active_registry()
        if registry is not None:
            self._publish_phase_metrics(registry, event, before)
        return event

    def _publish_phase_metrics(
        self, registry: MetricsRegistry, event: AdaptationEvent, before: ManagerCounters
    ) -> None:
        """Push one phase's outcome, and the eager expansions since the
        previous phase, into the installed metrics registry."""
        counters = self.counters
        registry.counter("manager.phases").inc()
        registry.counter("manager.expansions").inc(event.expansions)
        registry.counter("manager.compactions").inc(event.compactions)
        registry.counter("manager.evictions").inc(event.evictions)
        registry.counter("manager.migration_failures").inc(event.migration_failures)
        registry.counter("manager.migration_retries").inc(event.retries)
        registry.counter("manager.quarantined").inc(event.quarantined)
        registry.counter("manager.eager_expansions").inc(
            counters.eager_expansions - before.eager_expansions
        )
        registry.counter("manager.eager_expansions_refused").inc(
            counters.eager_expansions_refused - before.eager_expansions_refused
        )
        registry.counter("manager.eager_expansion_failures").inc(
            counters.eager_expansion_failures - before.eager_expansion_failures
        )
        registry.histogram("manager.sampled_per_phase", SIZE_BUCKETS).record(event.sampled)
        registry.histogram("manager.hot_per_phase", SIZE_BUCKETS).record(event.hot)
        registry.histogram("manager.migrations_per_phase", SIZE_BUCKETS).record(
            event.expansions + event.compactions
        )
        registry.gauge("manager.skip_length").set(event.skip_length_after)
        registry.gauge("manager.sample_size").set(event.sample_size_after)
        registry.gauge("manager.tracked_units").set(event.unique_tracked)
        registry.gauge("index.bytes").set(event.index_bytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The current sampling epoch."""
        return self._epoch

    @property
    def skip_length(self) -> int:
        """The current skip length."""
        return self._skip_length

    @property
    def sample_size(self) -> int:
        """The current phase's target sample size."""
        return self._sample_size

    @property
    def tracked_units(self) -> int:
        """Number of units currently in the sample map."""
        return len(self._samples)

    def stats_of(self, identifier: Hashable) -> Optional[AccessStats]:
        """The AccessStats of one tracked unit, or None."""
        return self._samples.get(identifier)

    @property
    def quarantined_units(self) -> int:
        """Units permanently excluded from migration after repeated failures."""
        return len(self._quarantined)

    def is_quarantined(self, identifier: Hashable) -> bool:
        """True when ``identifier`` will never be migrated again."""
        return identifier in self._quarantined

    @property
    def adaptation_degraded(self) -> bool:
        """True once repeated failures disabled adaptation entirely."""
        return self._degraded

    def has_expansion_headroom(self) -> bool:
        """True while the budget leaves room to expand a unit: utilization
        below :data:`~repro.core.heuristics.BUDGET_EXPAND_CEILING`, the
        ceiling the default CSHF gates its expansions on.  An unbounded
        budget always has room.  The index's eager expansion on insert
        asks this, so both expansion paths stop at the same point."""
        index = self._index
        limit = self.config.budget.limit_bytes(index.num_keys)
        return index.size_bytes() < BUDGET_EXPAND_CEILING * limit

    def enable(self) -> None:
        """Resume sampling."""
        self._enabled = True

    def disable(self) -> None:
        """Stop sampling entirely (used by trained/offline indexes)."""
        self._enabled = False

    def size_bytes(self) -> int:
        """Modeled footprint of the sampling framework itself.

        Hash map entries (aggregate + 8-byte key + bucket overhead) plus
        the Bloom filter bit array.
        """
        per_entry = 8 + 8 + AccessStats().size_bytes()
        return len(self._samples) * per_entry + self._filter.size_bytes()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _maybe_adapt(self) -> None:
        if self._sampled_this_phase >= self._sample_size:
            self.run_adaptation()

    def _classify(self, k: int) -> set:
        classifier = TopKClassifier(k)
        self.counters.classified_items += len(self._samples)
        for identifier, stats in self._samples.items():
            if stats.last_epoch != self._epoch:
                continue  # not seen this phase: cold without a heap visit
            classifier.offer(identifier, stats.frequency())
        self.counters.heap_operations += classifier.heap_operations
        return classifier.hot_items()

    def _apply_heuristic(self, hot_items: set) -> None:
        """Migrate what the heuristic decides, counting into
        :attr:`counters`."""
        tracer = active_tracer()  # once per phase; spans per migration below
        budget = self.config.budget
        utilization = budget.utilization(self._index.size_bytes(), self._index.num_keys)
        counters = self.counters
        to_evict = []
        # Iterate over a snapshot: migrations may mutate index internals.
        for identifier, stats in list(self._samples.items()):
            classification = (
                Classification.HOT if identifier in hot_items else Classification.COLD
            )
            stats.push_classification(classification)
            current_encoding = self._index.encoding_of(identifier)
            if current_encoding is None:
                to_evict.append(identifier)  # unit vanished from the index
                continue
            decision = self._heuristic(
                HeuristicInput(
                    identifier=identifier,
                    stats=stats,
                    classification=classification,
                    current_encoding=current_encoding,
                    budget_utilization=utilization,
                    epoch=self._epoch,
                )
            )
            if decision.action is HeuristicAction.STOP_TRACKING:
                to_evict.append(identifier)
            elif decision.action is HeuristicAction.MIGRATE:
                if identifier in self._quarantined:
                    continue  # failed too often; never migrated again
                if self._retry_at.get(identifier, 0) >= self._epoch:
                    continue  # still backing off from an earlier failure
                if identifier in self._failure_streaks:
                    counters.migration_retries += 1
                try:
                    migrated = self._index.migrate(
                        identifier, decision.target_encoding, stats.context
                    )
                except Exception:
                    self._record_migration_failure(identifier)
                    if tracer is not None:
                        tracer.event(
                            _migration_span_name(current_encoding, decision.target_encoding),
                            unit=type(identifier).__name__,
                            outcome="failed",
                            epoch=self._epoch,
                        )
                    continue
                if tracer is not None:
                    tracer.event(
                        _migration_span_name(current_encoding, decision.target_encoding),
                        unit=type(identifier).__name__,
                        outcome="migrated" if migrated else "skipped",
                        epoch=self._epoch,
                    )
                self._failure_streaks.pop(identifier, None)
                self._retry_at.pop(identifier, None)
                if not migrated:
                    continue
                if self._is_expansion(current_encoding, decision.target_encoding):
                    counters.expansions += 1
                else:
                    counters.compactions += 1
                utilization = budget.utilization(
                    self._index.size_bytes(), self._index.num_keys
                )
        for identifier in to_evict:
            self._samples.pop(identifier, None)
        counters.evictions += len(to_evict)

    def _record_migration_failure(self, identifier: Hashable) -> None:
        """Book one raising migration: backoff, quarantine, disable."""
        self.counters.migration_failures += 1
        streak = self._failure_streaks.get(identifier, 0) + 1
        self._failure_streaks[identifier] = streak
        if streak >= MAX_MIGRATION_RETRIES:
            self._quarantined.add(identifier)
            self._retry_at.pop(identifier, None)
            self.counters.quarantined_units += 1
            return
        backoff = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * (2 ** (streak - 1)))
        self._retry_at[identifier] = self._epoch + backoff

    def _is_expansion(self, source: object, target: object) -> bool:
        source_rank = self._encoding_rank.get(source, 0)
        target_rank = self._encoding_rank.get(target, 0)
        return target_rank > source_rank

    def _choose_k(self) -> int:
        population = max(1, self._index.tracked_population())
        budget = self.config.budget
        if budget.bounded:
            census = self._index.encoding_census()
            fast = self.config.fast_encoding
            expanded_count, expanded_avg = census.get(fast, (0, 0.0))
            compressed_count = 0
            compressed_total = 0.0
            for encoding, (count, avg_bytes) in census.items():
                if encoding == fast:
                    continue
                compressed_count += count
                compressed_total += count * avg_bytes
            compressed_avg = compressed_total / compressed_count if compressed_count else 0.0
            if expanded_count == 0 or expanded_avg == 0.0:
                # No expanded node yet: estimate its size pessimistically as
                # twice the compact average so k stays conservative.
                expanded_avg = max(1.0, 2.0 * compressed_avg)
            k = estimate_expandable_k(
                budget_bytes=int(budget.limit_bytes(self._index.num_keys)),
                compressed_count=compressed_count,
                compressed_avg_bytes=compressed_avg,
                expanded_count=expanded_count,
                expanded_avg_bytes=expanded_avg,
            )
            return max(1, k)
        fallback = int(population * FALLBACK_HOT_FRACTION)
        return max(FALLBACK_K_MIN, min(population, fallback))

    def _initial_sample_size(self) -> int:
        if self.config.initial_sample_size is not None:
            return max(1, self.config.initial_sample_size)
        return self._next_sample_size(self._choose_k())

    def _next_sample_size(self, k: int) -> int:
        population = max(1, self._index.tracked_population())
        size = required_sample_size(
            population=population,
            k=max(1, k),
            epsilon=self.config.epsilon,
            delta=self.config.delta,
        )
        return min(self.config.max_sample_size, size)

    def _new_filter(self) -> BloomFilter:
        capacity = max(8, self._sample_size // 2)
        return BloomFilter(capacity)
