"""The Fast Succinct Trie: LOUDS-dense upper levels, LOUDS-sparse rest.

Node numbering is breadth-first: the j-th has-child bit (1-indexed,
across the dense bitmaps followed by the sparse arrays, both of which are
laid out in BFS order) points to node j — the classic LOUDS invariant,
with node 0 the root.  Dense nodes are exactly the nodes numbered
``0 .. D-1`` because the dense/sparse split is by level.

Per node, the dense encoding stores a 256-bit label bitmap and a 256-bit
has-child bitmap; the sparse encoding stores explicit label bytes, one
has-child bit per label, and one LOUDS bit marking each node's first
label.  Values live in one array indexed by the rank of terminal labels
(dense terminals first, then sparse), so a value lookup is two rank
queries.

Traversal work is counted as ``fst_dense_visit`` / ``fst_sparse_visit``
events for the cost model (the paper's Table 2: sparse nodes need an
explicit in-node search and are markedly slower).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.fst.builder import TrieLevels, build_trie_levels
from repro.obs.runtime import active_tracer
from repro.sim.counters import OpCounters
from repro.succinct.bitvector import BitVector

# Footnote 1 of the paper: the sparse encoding is smaller than the dense
# one when a node stores fewer than 256/8 = 32 labels on average.
DENSE_FANOUT_THRESHOLD = 32.0

#: Precomputed ``leaf_probe:<region>`` span names (RA004: telemetry
#: names are literal tables, never formatted on the hot path).
_PROBE_EVENTS = {"sparse": "leaf_probe:sparse", "dense": "leaf_probe:dense"}


def choose_dense_cutoff(levels: TrieLevels, threshold: float = DENSE_FANOUT_THRESHOLD) -> int:
    """Default dense/sparse split: keep a level dense while its average
    fanout makes the dense encoding the smaller one (paper footnote 1)."""
    cutoff = 0
    for level in range(levels.height):
        if levels.average_fanout(level) >= threshold:
            cutoff = level + 1
        else:
            break
    return cutoff


class FST:
    """A static succinct trie over prefix-free byte-string keys."""

    stats_family = "fst"
    #: The one key type this family can order; the service refuses others.
    key_type = bytes

    def __init__(
        self,
        pairs: Sequence[Tuple[bytes, int]],
        dense_levels: Optional[int] = None,
        counters: Optional[OpCounters] = None,
    ) -> None:
        self.counters = counters if counters is not None else OpCounters()
        levels = build_trie_levels(pairs)
        if dense_levels is None:
            dense_levels = choose_dense_cutoff(levels)
        self.dense_levels = max(0, min(dense_levels, levels.height))
        self._num_keys = levels.num_keys
        self._height = levels.height
        self._build(levels)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, levels: TrieLevels) -> None:
        dense_labels = BitVector()
        dense_haschild = BitVector()
        sparse_labels: List[int] = []
        sparse_haschild = BitVector()
        sparse_louds = BitVector()
        dense_values: List[int] = []
        sparse_values: List[int] = []
        dense_node_count = 0
        self._level_first_node: List[int] = []
        node_number = 0
        for level_index, level_nodes in enumerate(levels.levels):
            self._level_first_node.append(node_number)
            for node in level_nodes:
                if level_index < self.dense_levels:
                    # Build the 256-bit bitmaps directly as ints and append
                    # them through the bulk word path — no per-bit work.
                    bitmap_labels = 0
                    bitmap_haschild = 0
                    for label, has_child, value in zip(
                        node.labels, node.has_child, node.values
                    ):
                        bitmap_labels |= 1 << label
                        if has_child:
                            bitmap_haschild |= 1 << label
                        else:
                            dense_values.append(value)
                    dense_labels.extend_from_word(bitmap_labels, 256)
                    dense_haschild.extend_from_word(bitmap_haschild, 256)
                    dense_node_count += 1
                else:
                    for position, (label, has_child, value) in enumerate(
                        zip(node.labels, node.has_child, node.values)
                    ):
                        sparse_labels.append(label)
                        sparse_haschild.append(1 if has_child else 0)
                        sparse_louds.append(1 if position == 0 else 0)
                        if not has_child:
                            sparse_values.append(value)
                node_number += 1
        self._dense_labels = dense_labels.seal()
        self._dense_haschild = dense_haschild.seal()
        self._sparse_labels = sparse_labels
        self._sparse_haschild = sparse_haschild.seal()
        self._sparse_louds = sparse_louds.seal()
        self._values = dense_values + sparse_values
        self._num_dense_nodes = dense_node_count
        self._dense_hc_total = self._dense_haschild.ones if len(self._dense_haschild) else 0
        self._dense_terminal_total = (
            (self._dense_labels.ones - self._dense_haschild.ones)
            if len(self._dense_labels)
            else 0
        )
        self._num_nodes = node_number

    # ------------------------------------------------------------------
    # Navigation primitives
    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        """Number of indexed keys."""
        return self._num_keys

    @property
    def num_nodes(self) -> int:
        """Total number of trie nodes."""
        return self._num_nodes

    @property
    def num_dense_nodes(self) -> int:
        """Number of LOUDS-dense nodes."""
        return self._num_dense_nodes

    @property
    def height(self) -> int:
        """The tree height (leaves included)."""
        return self._height

    def is_dense_node(self, node: int) -> bool:
        """True when ``node`` lives in the dense region."""
        return node < self._num_dense_nodes

    def level_of_node(self, node: int) -> int:
        """The level a node lives on (binary search over level offsets)."""
        lo, hi = 0, len(self._level_first_node) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._level_first_node[mid] <= node:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _dense_step(self, node: int, label: int):
        """(child_node, value, found): exactly one of child/value set."""
        position = node * 256 + label
        if not self._dense_labels[position]:
            return None, None, False
        if self._dense_haschild[position]:
            child = self._dense_haschild.rank1(position + 1)
            return child, None, True
        value_index = (
            self._dense_labels.rank1(position + 1)
            - self._dense_haschild.rank1(position + 1)
            - 1
        )
        return None, self._values[value_index], True

    def _sparse_range(self, node: int) -> Tuple[int, int]:
        """Label positions [start, end) of a sparse node."""
        sparse_index = node - self._num_dense_nodes
        start = self._sparse_louds.select1(sparse_index + 1)
        if sparse_index + 1 < self._sparse_louds.ones:
            end = self._sparse_louds.select1(sparse_index + 2)
        else:
            end = len(self._sparse_labels)
        return start, end

    def _sparse_step(self, node: int, label: int):
        start, end = self._sparse_range(node)
        for position in range(start, end):  # explicit in-node search
            if self._sparse_labels[position] == label:
                if self._sparse_haschild[position]:
                    child = self._dense_hc_total + self._sparse_haschild.rank1(
                        position + 1
                    )
                    return child, None, True
                value_index = self._dense_terminal_total + (
                    position + 1 - self._sparse_haschild.rank1(position + 1) - 1
                )
                return None, self._values[value_index], True
            if self._sparse_labels[position] > label:
                break
        return None, None, False

    def step(self, node: int, label: int):
        """Follow ``label`` out of ``node``; returns (child, value, found)."""
        if self.is_dense_node(node):
            self.counters.add("fst_dense_visit")
            return self._dense_step(node, label)
        self.counters.add("fst_sparse_visit")
        return self._sparse_step(node, label)

    def children(self, node: int) -> List[Tuple[int, Optional[int], Optional[int]]]:
        """All (label, child_node, value) triples of ``node`` in label order.

        Exactly one of ``child_node`` / ``value`` is non-None per triple.
        This is what Hybrid Trie expansion enumerates.
        """
        result: List[Tuple[int, Optional[int], Optional[int]]] = []
        if self.is_dense_node(node):
            base = node * 256
            labels_bits = self._dense_labels.word_slice(base, 256)
            haschild_bits = self._dense_haschild.word_slice(base, 256)
            # Ranks *before* this node's bitmap; advanced incrementally.
            child_rank = self._dense_haschild.rank1(base)
            value_rank = self._dense_labels.rank1(base) - child_rank
            remaining = labels_bits
            while remaining:
                label = (remaining & -remaining).bit_length() - 1
                remaining &= remaining - 1
                if (haschild_bits >> label) & 1:
                    child_rank += 1
                    result.append((label, child_rank, None))
                else:
                    result.append((label, None, self._values[value_rank]))
                    value_rank += 1
        else:
            start, end = self._sparse_range(node)
            child_rank = self._dense_hc_total + self._sparse_haschild.rank1(start)
            value_rank = self._dense_terminal_total + (
                start - self._sparse_haschild.rank1(start)
            )
            for position in range(start, end):
                label = self._sparse_labels[position]
                if self._sparse_haschild[position]:
                    child_rank += 1
                    result.append((label, child_rank, None))
                else:
                    result.append((label, None, self._values[value_rank]))
                    value_rank += 1
        return result

    def node_fanout(self, node: int) -> int:
        """Number of labels of ``node``."""
        if self.is_dense_node(node):
            base = node * 256
            return self._dense_labels.rank1(base + 256) - self._dense_labels.rank1(base)
        start, end = self._sparse_range(node)
        return end - start

    # ------------------------------------------------------------------
    # Lookups and scans
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        """Return the value stored under ``key``, or None.

        A sampled ``lookup`` span reports the descent's dense/sparse
        steps as the deltas of the visit counters :meth:`step` bumps.
        """
        if self._num_keys == 0:
            return None
        tracer = active_tracer()
        span = (
            tracer.op_start("lookup", family=self.stats_family)
            if tracer is not None
            else None
        )
        if span is not None:
            dense_before = self.counters.get("fst_dense_visit")
            sparse_before = self.counters.get("fst_sparse_visit")
        value = self.lookup_from(0, key, 0)
        if span is not None:
            sparse_steps = self.counters.get("fst_sparse_visit") - sparse_before
            tracer.event(
                "descent",
                dense_steps=self.counters.get("fst_dense_visit") - dense_before,
                sparse_steps=sparse_steps,
            )
            tracer.event(
                _PROBE_EVENTS["sparse" if sparse_steps else "dense"],
                hit=value is not None,
            )
            tracer.end(span)
        return value

    def lookup_from(self, node: int, key: bytes, depth: int) -> Optional[int]:
        """Continue a lookup from ``node`` at key byte ``depth`` — the entry
        point Hybrid Trie uses when descending out of the ART region."""
        while depth < len(key):
            child, value, found = self.step(node, key[depth])
            if not found:
                return None
            if value is not None:
                return value if depth == len(key) - 1 else None
            node = child
            depth += 1
        return None

    def lookup_many(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        """Batched point lookups; element ``i`` equals ``lookup(keys[i])``.

        For sorted key batches the trie descent is amortized: a stack of
        ``(node, depth)`` pairs from the previous key's path is rewound to
        the common prefix, so shared prefixes (sorted URL/e-mail batches
        share most of their bytes) are traversed once per run instead of
        once per key.  Unsorted batches fall back to per-key lookups.
        """
        total = len(keys)
        if total == 0:
            return []
        if self._num_keys == 0:
            return [None] * total
        if any(a > b for a, b in zip(keys, keys[1:])):
            return [self.lookup(key) for key in keys]
        results: List[Optional[int]] = []
        append = results.append
        stack: List[Tuple[int, int]] = [(0, 0)]  # (node, bytes consumed)
        push = stack.append
        pop = stack.pop
        previous: Optional[bytes] = None
        dense_visits = 0
        sparse_visits = 0
        num_dense = self._num_dense_nodes
        dense_step = self._dense_step
        sparse_step = self._sparse_step
        for key in keys:
            if previous is not None:
                limit = min(len(previous), len(key))
                common = 0
                while common < limit and previous[common] == key[common]:
                    common += 1
                while len(stack) > 1 and stack[-1][1] > common:
                    pop()
            previous = key
            node, depth = stack[-1]
            found_value: Optional[int] = None
            key_length = len(key)
            while depth < key_length:
                if node < num_dense:
                    dense_visits += 1
                    child, value, found = dense_step(node, key[depth])
                else:
                    sparse_visits += 1
                    child, value, found = sparse_step(node, key[depth])
                if not found:
                    break
                if value is not None:
                    if depth == key_length - 1:
                        found_value = value
                    break
                node = child
                depth += 1
                push((node, depth))
            append(found_value)
        if dense_visits:
            self.counters.add("fst_dense_visit", dense_visits)
        if sparse_visits:
            self.counters.add("fst_sparse_visit", sparse_visits)
        return results

    def iterate_subtree(self, node: int) -> Iterator[Tuple[bytes, int]]:
        """(key_suffix, value) pairs below ``node`` in key order."""
        yield from self._iterate_from(node, b"")

    def _iterate_from(self, node: int, suffix: bytes) -> Iterator[Tuple[bytes, int]]:
        for label, child, value in self.children(node):
            if value is not None:
                yield suffix + bytes([label]), value
            else:
                yield from self._iterate_from(child, suffix + bytes([label]))

    def items(self) -> Iterator[Tuple[bytes, int]]:
        """Yield all ``(key, value)`` pairs in key order."""
        if self._num_keys == 0:
            return
        yield from self._iterate_from(0, b"")

    def successor(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        """The smallest stored (key, value) with key >= ``key``.

        The primitive behind SuRF-style range filtering: one root-to-leaf
        walk plus at most one subtree descent, no full scan.
        """
        if self._num_keys == 0:
            return None
        result = self.scan(key, 1)
        return result[0] if result else None

    def range_contains(self, low: bytes, high: bytes) -> bool:
        """True iff any stored key lies in ``[low, high]`` (inclusive).

        This is the range-membership query SuRF answers approximately;
        over the complete key set it is exact.
        """
        if high < low:
            return False
        found = self.successor(low)
        return found is not None and found[0] <= high

    def prefix_items(self, prefix: bytes) -> Iterator[Tuple[bytes, int]]:
        """All (key, value) pairs whose key starts with ``prefix``,
        in key order — e.g. every e-mail under one host."""
        if self._num_keys == 0:
            return
        node = 0
        for depth, label in enumerate(prefix):
            child, value, found = self.step(node, label)
            if not found:
                return
            if value is not None:
                if depth == len(prefix) - 1:
                    yield prefix, value
                return
            node = child
        for suffix, value in self._iterate_from(node, b""):
            yield prefix + suffix, value

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        """Up to ``count`` pairs with key >= ``start_key`` in key order."""
        if count <= 0 or self._num_keys == 0:
            return []
        result: List[Tuple[bytes, int]] = []
        self._scan(0, b"", start_key, count, result)
        return result

    def _scan(
        self,
        node: int,
        path: bytes,
        start_key: bytes,
        count: int,
        result: List[Tuple[bytes, int]],
    ) -> None:
        if self.is_dense_node(node):
            self.counters.add("fst_dense_visit")
        else:
            self.counters.add("fst_sparse_visit")
        depth = len(path)
        # When the path so far equals the start key's prefix, labels below
        # the start key's byte at this depth cannot contribute.
        on_boundary = path == start_key[:depth]
        minimum_label = start_key[depth] if on_boundary and depth < len(start_key) else 0
        for label, child, value in self.children(node):
            if len(result) >= count:
                return
            if label < minimum_label:
                continue
            extended = path + bytes([label])
            if value is not None:
                if extended >= start_key:
                    result.append((extended, value))
            else:
                # Skip subtrees whose keys all precede the start key.
                if extended < start_key[: len(extended)]:
                    continue
                self._scan(child, extended, start_key, count, result)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to this library's stable binary format."""
        from repro.fst.serialize import fst_to_bytes

        return fst_to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FST":
        """Load an FST serialized with :meth:`to_bytes`."""
        from repro.fst.serialize import fst_from_bytes

        return fst_from_bytes(blob)

    # ------------------------------------------------------------------
    # Self-verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Prove structural integrity; raises
        :class:`~repro.core.invariants.InvariantViolation` on any LOUDS,
        value-array, or reachability inconsistency."""
        from repro.core.invariants import validate

        validate(self)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def dense_size_bytes(self) -> int:
        """Modeled bytes of the LOUDS-dense region."""
        return self._dense_labels.size_bytes() + self._dense_haschild.size_bytes()

    def sparse_size_bytes(self) -> int:
        """Modeled bytes of the LOUDS-sparse region."""
        return (
            len(self._sparse_labels)
            + self._sparse_haschild.size_bytes()
            + self._sparse_louds.size_bytes()
        )

    def values_size_bytes(self) -> int:
        """Modeled bytes of the value array."""
        return 8 * len(self._values)

    def size_bytes(self) -> int:
        """Return the modeled C++ footprint in bytes."""
        return self.dense_size_bytes() + self.sparse_size_bytes() + self.values_size_bytes()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node_census(self) -> dict:
        """Region -> (node count, avg modeled bytes) for dense/sparse."""
        census: dict = {}
        num_sparse = self._num_nodes - self._num_dense_nodes
        if self._num_dense_nodes:
            census["dense"] = (
                self._num_dense_nodes,
                self.dense_size_bytes() / self._num_dense_nodes,
            )
        if num_sparse:
            census["sparse"] = (num_sparse, self.sparse_size_bytes() / num_sparse)
        return census

    def stats(self) -> dict:
        """Uniform JSON-safe stats dict (see :mod:`repro.obs.introspect`)."""
        from repro.obs.introspect import base_stats

        stats = base_stats(
            self.stats_family,
            num_keys=self._num_keys,
            size_bytes=self.size_bytes(),
            census=self.node_census(),
            counters_snapshot=self.counters.snapshot(),
        )
        stats["height"] = self._height
        stats["dense_levels"] = self.dense_levels
        return stats

    def describe(self) -> str:
        """Human-readable rendering of :meth:`stats`."""
        from repro.obs.introspect import format_stats

        return format_stats(self.stats())
