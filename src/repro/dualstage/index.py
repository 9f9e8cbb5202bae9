"""Dual-Stage hybrid index: dynamic B+-tree + compact static stage.

The static stage is a :class:`CompactSortedArray`: all merged pairs in
one sorted run, physically laid out either *packed* (plain dense arrays)
or *succinct* (frame-of-reference blocks, mirroring Compact-X of the
original paper).  Lookups binary-search a block directory and then the
block.  The structure is immutable; inserts land in the dynamic stage and
periodic merges rebuild the run — the "expensive merge process" the
Adaptive-Hybrid-Indexes paper contrasts itself against.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.core.bloom import BloomFilter
from repro.faults.injector import fault_point
from repro.obs.introspect import IndexFamily
from repro.obs.metrics import SIZE_BUCKETS
from repro.obs.runtime import active_registry, active_tracer
from repro.sim.counters import OpCounters
from repro.succinct.for_codec import ForBlock, for_encode

_BLOCK_SIZE = 256

#: Precomputed ``leaf_probe:<stage>`` span names (RA004: telemetry
#: names are literal tables, never formatted on the hot path).
_PROBE_EVENTS = {
    "static": "leaf_probe:static",
    "dynamic": "leaf_probe:dynamic",
    "tombstone": "leaf_probe:tombstone",
}
_HEADER_BYTES = 16
_SLOT_BYTES = 16


class StaticEncoding(enum.Enum):
    """Physical layout of the static stage."""

    PACKED = "packed"
    SUCCINCT = "succinct"


class CompactSortedArray:
    """An immutable sorted run with a block directory."""

    def __init__(
        self,
        pairs: Sequence[Tuple[int, int]],
        encoding: StaticEncoding = StaticEncoding.SUCCINCT,
        counters: Optional[OpCounters] = None,
    ) -> None:
        self.counters = counters if counters is not None else OpCounters()
        keys = [key for key, _ in pairs]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("static stage requires strictly sorted unique keys")
        self.encoding = encoding
        self._num_entries = len(pairs)
        self._block_mins: List[int] = []
        if encoding is StaticEncoding.PACKED:
            self._keys = keys
            self._values = [value for _, value in pairs]
            self._blocks: List[ForBlock] = []
            self._value_blocks: List[ForBlock] = []
        else:
            self._keys = []
            self._values = []
            self._blocks = []
            self._value_blocks = []
            for start in range(0, len(pairs), _BLOCK_SIZE):
                chunk = pairs[start : start + _BLOCK_SIZE]
                self._blocks.append(for_encode([key for key, _ in chunk]))
                self._value_blocks.append(for_encode([value for _, value in chunk]))
                self._block_mins.append(chunk[0][0])

    def __len__(self) -> int:
        return self._num_entries

    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None."""
        if self._num_entries == 0:
            return None
        if self.encoding is StaticEncoding.PACKED:
            index = bisect.bisect_left(self._keys, key)
            if index < len(self._keys) and self._keys[index] == key:
                return self._values[index]
            return None
        block_index = bisect.bisect_right(self._block_mins, key) - 1
        if block_index < 0:
            return None
        block = self._blocks[block_index]
        lo, hi = 0, len(block)
        while lo < hi:
            mid = (lo + hi) // 2
            if block[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(block) and block[lo] == key:
            return self._value_blocks[block_index][lo]
        return None

    def lookup_many(self, keys: Sequence[int]) -> List[Optional[int]]:
        """Batched lookups; one value (or None) per key.

        Equivalent to per-key :meth:`lookup` calls but hoists the
        directory/array references out of the loop; succinct runs reuse
        the previously located block while consecutive keys stay inside
        it (the common case for sorted probe batches).
        """
        if self._num_entries == 0:
            return [None for _ in keys]
        results: List[Optional[int]] = []
        if self.encoding is StaticEncoding.PACKED:
            packed_keys = self._keys
            packed_values = self._values
            limit = len(packed_keys)
            for key in keys:
                index = bisect.bisect_left(packed_keys, key)
                if index < limit and packed_keys[index] == key:
                    results.append(packed_values[index])
                else:
                    results.append(None)
            return results
        append = results.append
        mins = self._block_mins
        blocks = self._blocks
        value_blocks = self._value_blocks
        cached_index = -1
        cached_keys: List[int] = []
        cached_values: Optional[List[int]] = None
        for key in keys:
            block_index = bisect.bisect_right(mins, key) - 1
            if block_index < 0:
                append(None)
                continue
            if block_index != cached_index:
                # One bulk decode per touched block; probe batches that
                # stay inside a block then bisect a plain list instead of
                # paying packed-array probes per binary-search step.
                cached_index = block_index
                cached_keys = blocks[block_index].to_list()
                cached_values = None
            position = bisect.bisect_left(cached_keys, key)
            if position < len(cached_keys) and cached_keys[position] == key:
                if cached_values is None:
                    cached_values = value_blocks[block_index].to_list()
                append(cached_values[position])
            else:
                append(None)
        return results

    def items(self) -> Iterator[Tuple[int, int]]:
        """Yield all ``(key, value)`` pairs in key order."""
        if self.encoding is StaticEncoding.PACKED:
            yield from zip(self._keys, self._values)
            return
        for block, values in zip(self._blocks, self._value_blocks):
            yield from zip(block.to_list(), values.to_list())

    def items_from(self, start_key: int) -> Iterator[Tuple[int, int]]:
        """Pairs with key >= start_key, starting at the right block."""
        if self._num_entries == 0:
            return
        if self.encoding is StaticEncoding.PACKED:
            index = bisect.bisect_left(self._keys, start_key)
            for position in range(index, len(self._keys)):
                self.counters.add("static_scan_item")
                yield self._keys[position], self._values[position]
            return
        block_index = max(0, bisect.bisect_right(self._block_mins, start_key) - 1)
        for current in range(block_index, len(self._blocks)):
            keys = self._blocks[current].to_list()
            values = self._value_blocks[current].to_list()
            for key, value in zip(keys, values):
                if key >= start_key:
                    self.counters.add("static_scan_item")
                    yield key, value

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        if self.encoding is StaticEncoding.PACKED:
            return _HEADER_BYTES + self._num_entries * _SLOT_BYTES
        total = _HEADER_BYTES + 8 * len(self._block_mins)
        total += sum(block.size_bytes() for block in self._blocks)
        total += sum(block.size_bytes() for block in self._value_blocks)
        return total


class DualStageIndex(IndexFamily):
    """Dynamic stage + static stage + Bloom filter, with ratio merges."""

    stats_family = "dualstage"
    key_type = int

    def __init__(
        self,
        static_encoding: StaticEncoding = StaticEncoding.SUCCINCT,
        merge_ratio: float = 0.05,
    ) -> None:
        if not 0 < merge_ratio < 1:
            raise ValueError(f"merge ratio must be in (0, 1), got {merge_ratio}")
        self.static_encoding = static_encoding
        self.merge_ratio = merge_ratio
        self.counters = OpCounters()
        self._dynamic = BPlusTree(LeafEncoding.GAPPED)
        self._dynamic.counters = self.counters  # one event stream
        self._static = CompactSortedArray([], static_encoding, self.counters)
        self._bloom = BloomFilter(capacity=1024)
        self._tombstones: set = set()
        self._num_keys = 0
        self.merges = 0

    @classmethod
    def bulk_load(
        cls,
        pairs: Sequence[Tuple[int, int]],
        static_encoding: StaticEncoding = StaticEncoding.SUCCINCT,
        merge_ratio: float = 0.05,
    ) -> "DualStageIndex":
        """Load sorted pairs directly into the static stage."""
        index = cls(static_encoding, merge_ratio)
        index._static = CompactSortedArray(list(pairs), static_encoding, index.counters)
        index._num_keys = len(index._static)
        return index

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None.

        Under an installed tracer the same probe sequence emits a sampled
        ``lookup`` span naming the stage that answered.
        """
        tracer = active_tracer()
        span = (
            tracer.op_start("lookup", family=self.stats_family)
            if tracer is not None
            else None
        )
        self.counters.add("bloom_probe")
        bloom_hit = key in self._bloom
        value: Optional[int] = None
        stage = "static"
        if bloom_hit:
            self.counters.add("dynamic_stage_probe")
            value = self._dynamic.lookup(key)
            if value is not None:
                stage = "dynamic"
            elif key in self._tombstones:
                stage = "tombstone"
        if stage == "static":
            self.counters.add("static_stage_probe")
            value = self._static.lookup(key)
        if span is not None:
            tracer.event("descent", bloom_hit=bloom_hit)
            tracer.event(_PROBE_EVENTS[stage], hit=value is not None)
            tracer.end(span)
        return value

    def lookup_many(self, keys: Sequence[int]) -> List[Optional[int]]:
        """Batched lookups; one value (or None) per key.

        One ``contains_many`` drains the Bloom filter for the whole
        batch, Bloom-positive keys probe the dynamic stage in one
        ``lookup_many``, and only the keys neither stage resolved reach
        the static run (again as one batch).  Per-key results and the
        per-stage probe counters are identical to looping
        :meth:`lookup`.
        """
        keys = list(keys)
        if not keys:
            return []
        self.counters.add("bloom_probe", len(keys))
        hits = self._bloom.contains_many(keys)
        results: List[Optional[int]] = [None] * len(keys)
        dynamic_positions = [i for i, hit in enumerate(hits) if hit]
        static_positions = [i for i, hit in enumerate(hits) if not hit]
        if dynamic_positions:
            self.counters.add("dynamic_stage_probe", len(dynamic_positions))
            found = self._dynamic.lookup_many([keys[i] for i in dynamic_positions])
            for position, value in zip(dynamic_positions, found):
                if value is not None:
                    results[position] = value
                elif keys[position] not in self._tombstones:
                    static_positions.append(position)
        if static_positions:
            static_positions.sort()
            self.counters.add("static_stage_probe", len(static_positions))
            found = self._static.lookup_many([keys[i] for i in static_positions])
            for position, value in zip(static_positions, found):
                results[position] = value
        return results

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

        The dynamic stage takes the whole batch through its own
        ``insert_many`` (one descent per leaf run for sorted batches)
        and the Bloom filter is populated in one ``add_many``.  The
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
        """Merge-scan both stages in key order."""
        if count <= 0:
            return []
        dynamic = self._dynamic.scan(start_key, count + len(self._tombstones))
        merged = self._merged(iter(dynamic), self._static.items_from(start_key))
        return list(itertools.islice(merged, count))

    def items(self) -> Iterator[Tuple[int, int]]:
        """All live pairs in key order."""
        return self._merged(self._dynamic.items(), self._static.items())

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
        total = len(self._dynamic) + len(self._static)
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
                static_entries=len(self._static),
            )
        try:
            self._merge_impl()
        except BaseException:
            if span is not None:
                tracer.end(span, outcome="failed")
            raise
        if span is not None:
            tracer.end(span, outcome="merged", merged_entries=len(self._static))
        registry = active_registry()
        if registry is not None:
            registry.counter("dualstage.merges").inc()
            registry.histogram("dualstage.merge_entries", SIZE_BUCKETS).record(
                len(self._static)
            )

    def _merge_impl(self) -> None:
        fault_point("dualstage.merge.collect")
        self.counters.add("merge_entry", len(self._dynamic) + len(self._static))
        merged = list(self.items())
        fault_point("dualstage.merge.build")
        new_static = CompactSortedArray(merged, self.static_encoding, self.counters)
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
        return len(self._static)

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        bloom_bytes = self._bloom.size_bytes()
        return self._dynamic.size_bytes() + self._static.size_bytes() + bloom_bytes

    def encoding_census(self) -> dict:
        """Stage -> (count, avg bytes): dynamic leaves plus the static run."""
        census = {
            f"dynamic:{encoding}": entry
            for encoding, entry in self._dynamic.encoding_census().items()
        }
        census[f"static:{self.static_encoding.value}"] = (
            1,
            float(self._static.size_bytes()),
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
