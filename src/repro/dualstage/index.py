"""Dual-Stage hybrid index: dynamic B+-tree + compact static stage.

The static stage holds all merged pairs in one sorted run, laid out
either *packed* (a :class:`~repro.bptree.leaves.PackedStorage` over every
pair) or *succinct* (a :class:`~repro.succinct.for_codec.ForRun` of
256-entry frame-of-reference blocks, mirroring Compact-X of the original
paper — the run the Succinct leaf uses, at a longer block).  Lookups
search the run's block directory and then the one block it names.  The
run is immutable; inserts land in the dynamic stage and periodic merges
rebuild it — the "expensive merge process" the Adaptive-Hybrid-Indexes
paper contrasts itself against.

Reads go key by key (``lookup_many`` is the index contract's per-key
default).  Only ``insert_many`` is the family's own: it fills the Bloom
filter in one ``add_many`` and checks the merge ratio once per batch.
"""

from __future__ import annotations

import itertools
from operator import length_hint
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.bptree.leaves import LeafEncoding, PackedStorage
from repro.bptree.tree import BPlusTree
from repro.core.bloom import BloomFilter
from repro.faults.injector import fault_point
from repro.obs import runtime as _obs_runtime
from repro.obs.introspect import IndexFamily
from repro.obs.metrics import SIZE_BUCKETS
from repro.obs.runtime import active_registry, active_tracer
from repro.sim.counters import OpCounters
from repro.succinct.for_codec import ForRun

#: Entries per FOR block of the succinct static stage.
_STATIC_BLOCK_ENTRIES = 256

#: Precomputed ``leaf_probe:<stage>`` span names (RA004: telemetry
#: names are literal tables, never formatted on the hot path).
_PROBE_EVENTS = {
    "static": "leaf_probe:static",
    "dynamic": "leaf_probe:dynamic",
    "tombstone": "leaf_probe:tombstone",
}


def _static_stage(
    pairs: Sequence[Tuple[int, int]], encoding: LeafEncoding
) -> Union[PackedStorage, ForRun]:
    """The static stage over strictly sorted ``pairs`` in ``encoding``."""
    if encoding is LeafEncoding.PACKED:
        return PackedStorage(pairs, len(pairs))
    return ForRun(pairs, _STATIC_BLOCK_ENTRIES)


class DualStageIndex(IndexFamily):
    """Dynamic stage + static stage + Bloom filter, with ratio merges."""

    stats_family = "dualstage"
    key_type = int

    def __init__(
        self,
        static_encoding: LeafEncoding = LeafEncoding.SUCCINCT,
        merge_ratio: float = 0.05,
    ) -> None:
        if not 0 < merge_ratio < 1:
            raise ValueError(f"merge ratio must be in (0, 1), got {merge_ratio}")
        if static_encoding is LeafEncoding.GAPPED:
            raise ValueError("the static stage is packed or succinct, not gapped")
        self.static_encoding = static_encoding
        self.merge_ratio = merge_ratio
        self.counters = OpCounters()
        self._dynamic = BPlusTree(LeafEncoding.GAPPED)
        self._dynamic.counters = self.counters  # one event stream
        self._static = _static_stage([], static_encoding)
        self._bloom = BloomFilter(capacity=1024)
        self._tombstones: set = set()
        self._num_keys = 0
        self.merges = 0

    @classmethod
    def bulk_load(
        cls,
        pairs: Sequence[Tuple[int, int]],
        static_encoding: LeafEncoding = LeafEncoding.SUCCINCT,
        merge_ratio: float = 0.05,
    ) -> "DualStageIndex":
        """Load sorted pairs directly into the static stage."""
        index = cls(static_encoding, merge_ratio)
        index._static = _static_stage(list(pairs), static_encoding)
        index._num_keys = index._static.num_entries()
        return index

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None.

        Under an installed tracer the same probe sequence emits a sampled
        ``lookup`` span naming the stage that answered.
        """
        telemetry = _obs_runtime._ACTIVE
        tracer = telemetry.tracer if telemetry is not None else None
        span = (
            tracer.op_start("lookup", family=self.stats_family)
            if tracer is not None
            else None
        )
        counts = self.counters.counts
        counts["bloom_probe"] += 1
        bloom_hit = key in self._bloom
        value: Optional[int] = None
        stage = "static"
        if bloom_hit:
            counts["dynamic_stage_probe"] += 1
            value = self._dynamic.lookup(key)
            if value is not None:
                stage = "dynamic"
            elif key in self._tombstones:
                stage = "tombstone"
        if stage == "static":
            counts["static_stage_probe"] += 1
            value = self._static.lookup(key)
        if span is not None:
            tracer.event("descent", bloom_hit=bloom_hit)
            tracer.event(_PROBE_EVENTS[stage], hit=value is not None)
            tracer.end(span)
        return value

    def insert(self, key: int, value: int) -> bool:
        """Insert ``key``; returns False when the key already existed."""
        new = self._dynamic.insert(key, value) and not self._in_static(key)
        self._num_keys += new
        self._bloom.add(key)
        self._tombstones.discard(key)
        if self._should_merge():
            self.merge()
        return new

    def insert_many(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Batched inserts.

        The dynamic stage takes the pairs one ``insert`` at a time
        (its ``insert_many`` is the per-key default) and the Bloom filter
        is populated in one ``add_many``.  The
        merge-ratio check runs once after the batch instead of after
        every key, so a merge can trigger slightly later than under
        per-key inserts — the final contents are identical either way.
        """
        pairs = list(pairs)
        if not pairs:
            return
        fresh = self._dynamic.insert_many(pairs)
        keys = [key for key, _ in pairs]
        self._num_keys += sum(
            1 for key, new in zip(keys, fresh) if new and not self._in_static(key)
        )
        self._bloom.add_many(keys)
        self._tombstones.difference_update(keys)
        if self._should_merge():
            self.merge()

    def _in_static(self, key: int) -> bool:
        """True when ``key`` lives in the static stage (not deleted)."""
        return key not in self._tombstones and self._static.lookup(key) is not None

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False when it was absent."""
        existed = self.lookup(key) is not None
        if not existed:
            return False
        self._dynamic.delete(key)
        self._tombstones.add(key)
        self._bloom.add(key)  # tombstones must be found before the static stage
        self._num_keys -= 1
        return True

    def scan(self, start_key: int, count: int) -> List[Tuple[int, int]]:
        """Merge-scan both stages in key order; ``static_scan_item``
        counts each pair the merge takes from the static stage."""
        if count <= 0:
            return []
        window = count + len(self._tombstones)
        dynamic = self._dynamic.scan(start_key, window)
        # Each static pair the merge consumes is returned, shadowed by a
        # returned dynamic pair or tombstoned, and it reads one pair
        # ahead: ``window + 1`` pairs are all it can take.
        window_pairs = self._static.pairs_from(start_key, window + 1)
        static = iter(window_pairs)
        result = list(itertools.islice(self._merged(iter(dynamic), static), count))
        taken = len(window_pairs) - length_hint(static)
        if taken:
            self.counters.counts["static_scan_item"] += taken
        return result

    def items(self) -> Iterator[Tuple[int, int]]:
        """All live pairs in key order."""
        return self._merged(self._dynamic.items(), iter(self._static.to_pairs()))

    def _merged(
        self, dynamic: Iterator[Tuple[int, int]], static: Iterator[Tuple[int, int]]
    ) -> Iterator[Tuple[int, int]]:
        """Merge two key-ordered stage runs: a dynamic pair shadows the
        static one under its key, and tombstoned static pairs are dropped.
        Each stage is advanced before its pair is yielded, so a caller
        that stops after ``count`` pairs has pulled the same entries a
        full merge would have at that point."""
        dynamic_pair = next(dynamic, None)
        static_pair = next(static, None)
        while dynamic_pair is not None or static_pair is not None:
            if static_pair is None or (
                dynamic_pair is not None and dynamic_pair[0] <= static_pair[0]
            ):
                if static_pair is not None and dynamic_pair[0] == static_pair[0]:
                    static_pair = next(static, None)  # shadowed version
                pair, dynamic_pair = dynamic_pair, next(dynamic, None)
                yield pair
            else:
                pair, static_pair = static_pair, next(static, None)
                if pair[0] not in self._tombstones:
                    yield pair

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def _should_merge(self) -> bool:
        total = len(self._dynamic) + self._static.num_entries()
        if total == 0:
            return False
        return len(self._dynamic) / total > self.merge_ratio

    def merge(self) -> None:
        """Fold the dynamic stage into the static one (full rebuild).

        Transactional: the replacement static run, dynamic tree, and
        Bloom filter are all built off to the side and installed in an
        exception-free swap, so a failure anywhere in the (expensive)
        rebuild — including an injected fault — leaves both stages
        serving the pre-merge state; the next insert simply retries.

        Merges are phase-level events (not per-op), so the span is
        always emitted under an installed tracer and the merge size is
        published into an installed metrics registry.
        """
        tracer = active_tracer()
        span = None
        if tracer is not None:
            span = tracer.start(
                "merge",
                dynamic_entries=len(self._dynamic),
                static_entries=self._static.num_entries(),
            )
        try:
            self._merge_impl()
        except BaseException:
            if span is not None:
                tracer.end(span, outcome="failed")
            raise
        if span is not None:
            tracer.end(
                span, outcome="merged", merged_entries=self._static.num_entries()
            )
        registry = active_registry()
        if registry is not None:
            registry.counter("dualstage.merges").inc()
            registry.histogram("dualstage.merge_entries", SIZE_BUCKETS).record(
                self._static.num_entries()
            )

    def _merge_impl(self) -> None:
        fault_point("dualstage.merge.collect")
        self.counters.counts["merge_entry"] += (
            len(self._dynamic) + self._static.num_entries()
        )
        merged = list(self.items())
        fault_point("dualstage.merge.build")
        new_static = _static_stage(merged, self.static_encoding)
        new_dynamic = BPlusTree(LeafEncoding.GAPPED)
        new_dynamic.counters = self.counters
        new_bloom = BloomFilter(capacity=max(1024, len(merged) // 16))
        fault_point("dualstage.merge.swap")
        self._static = new_static
        self._dynamic = new_dynamic
        self._bloom = new_bloom
        self._tombstones = set()
        self.merges += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        """Number of live keys across both stages."""
        return self._num_keys

    @property
    def dynamic_size(self) -> int:
        """Number of keys in the dynamic stage."""
        return len(self._dynamic)

    @property
    def static_size(self) -> int:
        """Number of keys in the static stage."""
        return self._static.num_entries()

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        bloom_bytes = self._bloom.size_bytes()
        return self._dynamic.size_bytes() + self._static_bytes() + bloom_bytes

    def _static_bytes(self) -> int:
        """The static stage's modeled bytes; a FOR run also pays 8 B per
        block for its directory of block minimums."""
        static = self._static
        if isinstance(static, ForRun):
            return static.size_bytes() + 8 * static.num_blocks()
        return static.size_bytes()

    def encoding_census(self) -> dict:
        """Stage -> (count, avg bytes): dynamic leaves plus the static run."""
        census = {
            f"dynamic:{encoding}": entry
            for encoding, entry in self._dynamic.encoding_census().items()
        }
        census[f"static:{self.static_encoding.value}"] = (
            1,
            float(self._static_bytes()),
        )
        return census

    def stats(self) -> dict:
        """The uniform stats dict plus the stages' state."""
        stats = super().stats()
        stats["merges"] = self.merges
        stats["dynamic_size"] = self.dynamic_size
        stats["static_size"] = self.static_size
        stats["tombstones"] = len(self._tombstones)
        stats["bloom_saturation"] = round(self._bloom.saturation(), 4)
        return stats
