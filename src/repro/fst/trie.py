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

from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.fst.builder import TrieLevels, build_trie_levels
from repro.obs import runtime as _obs_runtime
from repro.obs.introspect import IndexFamily
from repro.sim.counters import OpCounters
from repro.succinct.bitvector import SELECT_SAMPLE_RATE, BitVector, _SELECT_IN_BYTE

#: ``BitVector.select1``'s directory stride, for the select the descent
#: inlines (named apart from "sample" because Table 4's line count reads
#: that word as adaptation tracking).
_SELECT_STRIDE = SELECT_SAMPLE_RATE

# Footnote 1 of the paper: the sparse encoding is smaller than the dense
# one when a node stores fewer than 256/8 = 32 labels on average.
DENSE_FANOUT_THRESHOLD = 32.0

#: The 256 one-byte strings: extending a key path by a label is one
#: table read and one concatenation.
_BYTE = [bytes([label]) for label in range(256)]

#: Precomputed ``leaf_probe:<region>`` span names (RA004: telemetry
#: names are literal tables, never formatted on the hot path).
_PROBE_EVENTS = {"sparse": "leaf_probe:sparse", "dense": "leaf_probe:dense"}


def choose_dense_cutoff(levels: TrieLevels) -> int:
    """Default dense/sparse split: keep a level dense while its average
    fanout makes the dense encoding the smaller one (paper footnote 1)."""
    cutoff = 0
    for level in range(levels.height):
        if levels.average_fanout(level) >= DENSE_FANOUT_THRESHOLD:
            cutoff = level + 1
        else:
            break
    return cutoff


class FST(IndexFamily):
    """A static succinct trie over prefix-free byte-string keys."""

    stats_family = "fst"
    key_type = bytes
    read_only = True

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
        dense_rows = levels.levels[: self.dense_levels]
        sparse_rows = levels.levels[self.dense_levels :]
        node_counts = [row.nodes for row in levels.levels]
        self._level_first_node = list(accumulate(node_counts, initial=0))[:-1]
        # The dense levels are few and wide: each node's two 256-bit
        # bitmaps are built as ints and appended through the word path.
        dense_labels = BitVector()
        dense_haschild = BitVector()
        for row in dense_rows:
            bitmap_labels = bitmap_haschild = 0
            for label, has_child, starts in zip(row.labels, row.has_child, row.louds):
                if starts and bitmap_labels:
                    dense_labels.extend_from_word(bitmap_labels, 256)
                    dense_haschild.extend_from_word(bitmap_haschild, 256)
                    bitmap_labels = bitmap_haschild = 0
                bitmap_labels |= 1 << label
                bitmap_haschild |= has_child << label
            if bitmap_labels:
                dense_labels.extend_from_word(bitmap_labels, 256)
                dense_haschild.extend_from_word(bitmap_haschild, 256)
        self._dense_labels = dense_labels.seal()
        self._dense_haschild = dense_haschild.seal()
        # The sparse region is the sparse levels' columns back to back.
        self._sparse_labels = b"".join(row.labels for row in sparse_rows)
        self._sparse_haschild = BitVector(b"".join(row.has_child for row in sparse_rows)).seal()
        self._sparse_louds = BitVector(b"".join(row.louds for row in sparse_rows)).seal()
        # Dense terminals come first, then sparse: level order.
        self._values = [value for row in levels.levels for value in row.values]
        self._num_dense_nodes = sum(node_counts[: self.dense_levels])
        self._dense_hc_total = self._dense_haschild.ones if len(self._dense_haschild) else 0
        self._dense_terminal_total = (
            (self._dense_labels.ones - self._dense_haschild.ones)
            if len(self._dense_labels)
            else 0
        )
        self._num_nodes = sum(node_counts)

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

    # An *edge* is the navigation kernel's one-int answer to "follow
    # ``label`` out of ``node``": a child node number (> 0; the root is
    # nobody's child), ``~value_index`` (< 0) for a terminal label, or 0
    # when the node has no such label.  The kernel reads payload words
    # and rank blocks directly, but only at positions a select /
    # ``bytes.find`` just produced on the same sealed vector (or inside a
    # dense node's own bitmap); an overrun still raises ``IndexError``.
    def _dense_edge(self, node: int, label: int) -> int:
        word_index = node * 4 + (label >> 6)
        bit = label & 63
        labels = self._dense_labels
        label_word = labels._words[word_index]
        if not label_word >> bit & 1:
            return 0
        haschild = self._dense_haschild
        child_word = haschild._words[word_index]
        through = (2 << bit) - 1
        children = haschild._rank_blocks[word_index] + (child_word & through).bit_count()
        if child_word >> bit & 1:
            return children
        return ~(
            labels._rank_blocks[word_index] + (label_word & through).bit_count() - children - 1
        )

    def _sparse_range(self, node: int) -> Tuple[int, int]:
        """Label positions [start, end) of a sparse node: one select for
        the start, then a next-set-bit scan of the word it landed in —
        only a node whose labels run past that word asks the vector."""
        louds = self._sparse_louds
        start = louds.select1(node - self._num_dense_nodes + 1)
        rest = louds._words[start >> 6] >> (start & 63) >> 1
        if rest:
            return start, start + (rest & -rest).bit_length()
        return start, louds.next1(start + 1)

    def step(self, node: int, label: int):
        """Follow ``label`` out of ``node``; returns (child, value, found)."""
        edge, _, dense = self._descend(node, _BYTE[label], 0)
        self._count_visits(dense, 1 - dense)
        if edge > 0:
            return edge, None, True
        return (None, self._values[~edge], True) if edge else (None, None, False)

    def _edges(self, node: int, floor: int = 0) -> Iterable[Tuple[int, int]]:
        """``(label, edge)`` for ``node``'s labels >= ``floor`` in label
        order."""
        if node < self._num_dense_nodes:
            return self._dense_edges(node, floor)
        return self._sparse_edges(*self._sparse_range(node), floor)

    def _dense_edges(self, node: int, floor: int) -> Iterator[Tuple[int, int]]:
        """Lazily yield a dense node's ``(label, edge)`` pairs."""
        base = node * 256
        remaining = self._dense_labels.word_slice(base, 256) >> floor << floor
        haschild_bits = self._dense_haschild.word_slice(base, 256)
        # Ranks *before* the first enumerated label; advanced per label.
        child = self._dense_haschild.rank1(base + floor)
        value_index = self._dense_labels.rank1(base + floor) - child
        while remaining:
            label = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            if haschild_bits >> label & 1:
                child += 1
                yield label, child
            else:
                yield label, ~value_index
                value_index += 1

    def _sparse_edges(self, start: int, end: int, floor: int) -> List[Tuple[int, int]]:
        """The ``(label, edge)`` pairs of the sparse node at label positions
        ``[start, end)``: a list, as sparse nodes average barely more than
        one label."""
        labels = self._sparse_labels
        if floor:
            start = bisect_left(labels, floor, start, end)
            if start == end:
                return []
        # Ranks *before* ``start`` (one word read), advanced per label.
        words = self._sparse_haschild._words
        ones = self._sparse_haschild._rank_blocks[start >> 6] + (
            words[start >> 6] & ((1 << (start & 63)) - 1)
        ).bit_count()
        child = self._dense_hc_total + ones
        value_index = self._dense_terminal_total + start - ones
        edges = []
        for position in range(start, end):
            if words[position >> 6] >> (position & 63) & 1:
                child += 1
                edges.append((labels[position], child))
            else:
                edges.append((labels[position], ~value_index))
                value_index += 1
        return edges

    def children(self, node: int) -> List[Tuple[int, Optional[int], Optional[int]]]:
        """All (label, child_node, value) triples of ``node`` in label order.

        Exactly one of ``child_node`` / ``value`` is non-None per triple.
        This is what Hybrid Trie expansion enumerates.
        """
        values = self._values
        return [
            (label, edge, None) if edge > 0 else (label, None, values[~edge])
            for label, edge in self._edges(node)
        ]

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
        steps as the deltas of the visit counters the descent flushes.
        """
        if self._num_keys == 0:
            return None
        telemetry = _obs_runtime._ACTIVE
        tracer = telemetry.tracer if telemetry is not None else None
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

    def _descend(self, node: int, key: bytes, depth: int) -> Tuple[int, int, int]:
        """Follow ``key[depth:]`` down from ``node`` until an edge is
        terminal or missing or the key runs out; returns ``(last edge,
        depth reached, dense visits)``.  Every visit consumes one byte,
        so the sparse visits are the rest of the depth gained.

        A sparse step runs in this frame: ``BitVector.select1`` on the
        LOUDS bits (its range check and ``ValueError`` included) finds
        the node's first label, the next set bit of the same word its
        end, ``bytes.find`` the label, and one has-child word read the
        edge.  ``tests/fst/test_kernel.py`` pins it to the public
        ``select1`` / ``next1`` / ``rank1``.
        """
        length = len(key)
        num_dense = self._num_dense_nodes
        louds = self._sparse_louds
        louds_words = louds._words
        louds_blocks = louds._rank_blocks
        directory = louds._select1_directory
        louds_ones = louds._ones
        last_slot = len(directory) - 1
        last_word = len(louds_words) - 1
        labels = self._sparse_labels
        haschild_words = self._sparse_haschild._words
        haschild_blocks = self._sparse_haschild._rank_blocks
        child_base = self._dense_hc_total
        value_base = self._dense_terminal_total
        dense_visits = 0
        edge = 0
        while depth < length:
            if node < num_dense:
                dense_visits += 1
                edge = self._dense_edge(node, key[depth])
            else:
                # ``louds.select1(count)``: the directory brackets the word,
                # a bisect of the rank blocks finds it, popcount halvings
                # and the in-byte table finish inside it.
                count = node - num_dense + 1
                if count > louds_ones:
                    raise ValueError(
                        f"select1({count}) out of range; vector has {louds_ones} ones"
                    )
                slot = (count - 1) // _SELECT_STRIDE
                word_index = directory[slot]
                last = directory[slot + 1] if slot < last_slot else last_word
                word_index = bisect_left(louds_blocks, count, word_index + 1, last + 1) - 1
                word = lane = louds_words[word_index]
                remaining = count - louds_blocks[word_index]
                start = word_index << 6
                ones = (lane & 0xFFFFFFFF).bit_count()
                if remaining > ones:
                    remaining -= ones
                    lane >>= 32
                    start += 32
                ones = (lane & 0xFFFF).bit_count()
                if remaining > ones:
                    remaining -= ones
                    lane >>= 16
                    start += 16
                ones = (lane & 0xFF).bit_count()
                if remaining > ones:
                    remaining -= ones
                    lane >>= 8
                    start += 8
                start += _SELECT_IN_BYTE[(lane & 0xFF) << 3 | remaining - 1]
                # The node ends at the next LOUDS bit: in the same word
                # unless its labels run past it.
                rest = word >> (start & 63) >> 1
                end = start + (rest & -rest).bit_length() if rest else louds.next1(start + 1)
                position = labels.find(key[depth], start, end)  # in-node search
                if position < 0:
                    edge = 0
                else:
                    # Has-child test and rank1(position + 1) from one word.
                    word_index = position >> 6
                    bit = position & 63
                    word = haschild_words[word_index]
                    children = (
                        haschild_blocks[word_index] + (word & ((2 << bit) - 1)).bit_count()
                    )
                    if word >> bit & 1:
                        edge = child_base + children
                    else:
                        edge = ~(value_base + position - children)
            depth += 1
            if edge <= 0:
                break
            node = edge
        return edge, depth, dense_visits

    def _count_visits(self, dense: int, sparse: int) -> None:
        """One flush per descent; a zero total must not create the key."""
        if dense:
            self.counters.counts["fst_dense_visit"] += dense
        if sparse:
            self.counters.counts["fst_sparse_visit"] += sparse

    def lookup_from(self, node: int, key: bytes, depth: int) -> Optional[int]:
        """Continue a lookup from ``node`` at key byte ``depth`` — the entry
        point Hybrid Trie uses when descending out of the ART region."""
        edge, end, dense = self._descend(node, key, depth)
        self._count_visits(dense, end - depth - dense)
        # A terminal label is a hit only when it consumed the whole key.
        return self._values[~edge] if edge < 0 and end == len(key) else None

    def iterate_subtree(self, node: int) -> Iterator[Tuple[bytes, int]]:
        """(key_suffix, value) pairs below ``node`` in key order."""
        yield from self._iterate_from(node, b"")

    def _iterate_from(self, node: int, suffix: bytes) -> Iterator[Tuple[bytes, int]]:
        for label, edge in self._edges(node):
            if edge < 0:
                yield suffix + _BYTE[label], self._values[~edge]
            else:
                yield from self._iterate_from(edge, suffix + _BYTE[label])

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
        edge, depth, dense = self._descend(0, prefix, 0)
        self._count_visits(dense, depth - dense)
        if edge > 0 or not prefix:  # an inner node (the root for b"")
            yield from self._iterate_from(edge, prefix)
        elif edge < 0 and depth == len(prefix):
            yield prefix, self._values[~edge]

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        """Up to ``count`` pairs with key >= ``start_key`` in key order."""
        if count <= 0 or self._num_keys == 0:
            return []
        result: List[Tuple[bytes, int]] = []
        self.scan_from(0, b"", start_key, count, result)
        return result

    def scan_from(
        self,
        node: int,
        path: bytes,
        start_key: bytes,
        count: int,
        result: List[Tuple[bytes, int]],
    ) -> None:
        """Append pairs with key >= ``start_key`` from the subtree of
        ``node`` (whose key prefix is ``path``) until ``result`` holds
        ``count`` — how Hybrid Trie continues a scan below a compact
        branch.  Visits are counted locally and flushed once."""
        prefix = start_key[: len(path)]
        if path < prefix:
            return  # the whole subtree precedes the start key
        visits = [0, 0]  # dense, sparse
        bounded = path == prefix and len(path) < len(start_key)
        self._scan(node, path, start_key, bounded, count, result, visits, {})
        self._count_visits(*visits)

    def _scan(
        self,
        node: int,
        path: bytes,
        start_key: bytes,
        bounded: bool,
        count: int,
        result: List[Tuple[bytes, int]],
        visits: List[int],
        cursor: Dict[int, Tuple[int, int]],
    ) -> None:
        # ``bounded``: ``path`` is a proper prefix of the start key, so
        # labels below the start key's next byte cannot contribute, the
        # equal label stays on the boundary (and is the start key itself
        # when it is its ``last`` byte), and larger ones leave it.  Off
        # the boundary every key of the subtree qualifies.
        #
        # ``cursor`` maps a level to the ``(node, end)`` of the last sparse
        # node this walk read there.  A key-order walk meets each level's
        # nodes in increasing BFS number, and BFS order is the sparse
        # arrays' order, so a node numbered one past its level's last one
        # starts where that one ended: only a miss pays the select.
        level = len(path)
        floor = start_key[level] if bounded else 0
        last = level + 1 == len(start_key)
        if node < self._num_dense_nodes:
            visits[0] += 1
            edges: Iterable[Tuple[int, int]] = self._dense_edges(node, floor)
        else:
            visits[1] += 1
            previous = cursor.get(level)
            if previous is not None and previous[0] == node - 1:
                start = previous[1]
                louds = self._sparse_louds
                rest = louds._words[start >> 6] >> (start & 63) >> 1
                end = start + (rest & -rest).bit_length() if rest else louds.next1(start + 1)
            else:
                start, end = self._sparse_range(node)
            cursor[level] = node, end
            edges = self._sparse_edges(start, end, floor)
        for label, edge in edges:
            if len(result) >= count:
                return
            on_boundary = bounded and label == floor
            if edge > 0:
                self._scan(
                    edge,
                    path + _BYTE[label],
                    start_key,
                    on_boundary and not last,
                    count,
                    result,
                    visits,
                    cursor,
                )
            elif last or not on_boundary:
                result.append((path + _BYTE[label], self._values[~edge]))

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
    def encoding_census(self) -> dict:
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
        """The uniform stats dict plus the trie's shape."""
        stats = super().stats()
        stats["height"] = self._height
        stats["dense_levels"] = self.dense_levels
        return stats
