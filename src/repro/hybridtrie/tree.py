"""The Hybrid Trie (AHI-Trie), Section 4.2 of the paper.

Construction (level-wise, Figure 10): one global FST is built over the
whole key set; the upper ``c_art`` levels are then materialized as ART
nodes whose boundary children are compact :class:`TrieBranch` wrappers
pointing into the FST.  The FST's own dense/sparse split (``c_fst``) is
independent and configured through ``dense_levels``.

Run-time refinement (branch-wise): the adaptation manager tracks sampled
accesses to branches; hot branches *expand* — one ART node is built from
the FST node's labels (node type chosen by fanout), its children becoming
new compact branches one level deeper — and cold branches *compact* back
to their FST node number.  The FST is static and complete, so compaction
is pointer surgery only (the paper: ~100 ns) while expansion must collect
the labels (~5 µs).

Inserts are not supported (the paper leaves them to future work since
FST is static); lookups and range scans are.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.art.nodes import art_node_for_fanout
from repro.core.access import AccessType
from repro.core.budget import MemoryBudget
from repro.core.manager import AdaptationManager, ManagerConfig
from repro.core.trained import rank_units
from repro.faults.injector import fault_point
from repro.fst.trie import _BYTE, FST
from repro.hybridtrie.tagged import BRANCH_POINTER_BYTES, TrieBranch, TrieEncoding
from repro.obs import runtime as _obs_runtime
from repro.obs.introspect import IndexFamily

TRIE_ENCODING_ORDER: Tuple[TrieEncoding, ...] = (TrieEncoding.FST, TrieEncoding.ART)
DEFAULT_ART_LEVELS = 2

#: Precomputed ``leaf_probe:<region>`` span names (RA004: telemetry
#: names are literal tables, never formatted on the hot path).
_PROBE_EVENTS = {
    "none": "leaf_probe:none",
    "fst": "leaf_probe:fst",
    "art": "leaf_probe:art",
}


def _branches_under(current) -> Iterator[TrieBranch]:
    """Every branch at or below ``current`` (an ART node or a branch), in
    key order; an expanded branch comes before the branches its ART node
    holds."""
    if isinstance(current, TrieBranch):
        yield current
        if current.expanded:
            yield from _branches_under(current.art_node)
        return
    for _, child in current.children_items():
        if not isinstance(child, int):
            yield from _branches_under(child)


class HybridTrie(IndexFamily):
    """Level-wise ART + FST with adaptive branch-wise refinement."""

    stats_family = "hybridtrie"
    key_type = bytes
    read_only = True

    def __init__(
        self,
        pairs: Sequence[Tuple[bytes, int]],
        art_levels: int = DEFAULT_ART_LEVELS,
        dense_levels: Optional[int] = None,
        adaptive: bool = True,
        manager_config: Optional[ManagerConfig] = None,
    ) -> None:
        fst = FST(pairs, dense_levels=dense_levels)
        # The FST's counters are the trie's.
        self.counters = fst.counters
        self._fst = fst
        self._num_keys = fst.num_keys
        self.art_levels = max(0, min(art_levels, fst.height))
        self._num_branches = 0
        #: Modeled bytes of every materialized ART node, kept at each
        #: build, expansion and compaction.
        self._art_bytes = 0
        self._root = self._build_upper(0, 0) if self._num_keys else None
        self.adaptive = adaptive
        self.manager = AdaptationManager(
            self, manager_config or ManagerConfig(encoding_order=TRIE_ENCODING_ORDER)
        )
        if not adaptive:
            self.manager.disable()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_upper(self, fst_node: int, level: int):
        """Materialize the permanent ART region down to ``art_levels``."""
        if level >= self.art_levels:
            branch = TrieBranch(fst_node, level)
            self._num_branches += 1
            return branch
        entries = self._fst.children(fst_node)
        node = art_node_for_fanout(len(entries))
        for label, child, value in entries:
            if value is not None:
                node.set_child(label, value)
            else:
                node.set_child(label, self._build_upper(child, level + 1))
        self._art_bytes += node.size_bytes()
        return node

    def branches(self) -> Iterator[TrieBranch]:
        """Every live branch, in key order (expanded ones before the
        branches their ART node holds)."""
        if self._root is not None:
            yield from _branches_under(self._root)

    # ------------------------------------------------------------------
    # Lookups (Listing 2)
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        """Return the value stored under ``key``, or None.

        Under an installed tracer the same descent emits a sampled
        ``lookup`` span; its ``art_steps`` are the ART nodes the descent
        visited, the count it flushes to ``art_visit`` once at the end.
        """
        telemetry = _obs_runtime._ACTIVE
        tracer = telemetry.tracer if telemetry is not None else None
        span = (
            tracer.op_start("lookup", family=self.stats_family)
            if tracer is not None
            else None
        )
        if self._root is None:
            if span is not None:
                tracer.end(span, empty=True)
            return None
        self.counters.counts["sample_check"] += 1
        track = self.adaptive and self.manager.is_sample()
        current = self._root
        depth = 0
        art_steps = 0
        probe = "none"
        value: Optional[int] = None
        while True:
            if isinstance(current, TrieBranch):
                if track:
                    self.manager.track(current, AccessType.READ)
                if not current.expanded:
                    value = self._fst.lookup_from(current.fst_node, key, depth)
                    probe = "fst"
                    break
                current = current.art_node
                continue
            # ART node (upper region or an expanded branch's node).
            art_steps += 1
            if depth >= len(key):
                break
            child = current.find_child(key[depth])
            depth += 1
            if child is None:
                break
            if isinstance(child, int):
                self.counters.counts["trie_value_fetch"] += 1
                value = child if depth == len(key) else None
                probe = "art"
                break
            current = child
        if art_steps:
            self.counters.counts["art_visit"] += art_steps
        if span is not None:
            tracer.event("descent", art_steps=art_steps, depth=depth)
            tracer.event(_PROBE_EVENTS[probe], hit=value is not None)
            tracer.end(span, sampled=track)
        return value

    def __contains__(self, key: bytes) -> bool:
        return self.lookup(key) is not None

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        """Up to ``count`` pairs with key >= ``start_key`` in key order."""
        if count <= 0 or self._root is None:
            return []
        self.counters.counts["sample_check"] += 1
        track = self.adaptive and self.manager.is_sample()
        result: List[Tuple[bytes, int]] = []
        self._scan(self._root, b"", start_key, bool(start_key), count, result, track)
        return result

    def _scan(
        self,
        current,
        path: bytes,
        start_key: bytes,
        bounded: bool,
        count: int,
        result: List[Tuple[bytes, int]],
        track: bool,
    ) -> None:
        # ``bounded`` as in :meth:`FST.scan_from`: ``path`` is a proper prefix
        # of the start key, so only labels from its next byte up matter.
        if isinstance(current, TrieBranch):
            if track:
                self.manager.track(current, AccessType.SCAN)
            if not current.expanded:
                fst = self._fst
                dense, sparse = fst.scan_from(current.fst_node, path, start_key, count, result)
                fst._count_visits(dense, sparse)
                return
            current = current.art_node
        self.counters.counts["art_visit"] += 1
        floor = start_key[len(path)] if bounded else 0
        last = len(path) + 1 == len(start_key)
        for label, child in current.children_items():
            if len(result) >= count:
                return
            if label < floor:
                continue
            on_boundary = bounded and label == floor
            if not isinstance(child, int):
                self._scan(
                    child,
                    path + _BYTE[label],
                    start_key,
                    on_boundary and not last,
                    count,
                    result,
                    track,
                )
            elif last or not on_boundary:
                result.append((path + _BYTE[label], child))

    def prefix_items(self, prefix: bytes) -> List[Tuple[bytes, int]]:
        """All (key, value) pairs whose key starts with ``prefix``, in key
        order — answered across the mixed ART/FST structure via chunked
        range scans."""
        results: List[Tuple[bytes, int]] = []
        start = prefix
        chunk = 256
        while True:
            batch = self.scan(start, chunk)
            for key, value in batch:
                if not key.startswith(prefix):
                    return results
                results.append((key, value))
            if len(batch) < chunk:
                return results
            start = batch[-1][0] + b"\x00"

    def successor(self, key: bytes) -> Optional[Tuple[bytes, int]]:
        """The smallest stored (key, value) with key >= ``key``."""
        batch = self.scan(key, 1)
        return batch[0] if batch else None

    def items(self) -> List[Tuple[bytes, int]]:
        """All pairs in key order (scans without sampling)."""
        if self._root is None:
            return []
        result: List[Tuple[bytes, int]] = []
        self._scan(self._root, b"", b"", False, self._num_keys, result, False)
        return result

    # ------------------------------------------------------------------
    # Branch migrations (the Encode callback of Listing 2)
    # ------------------------------------------------------------------
    def expand_branch(self, branch: TrieBranch) -> bool:
        """FST -> ART: materialize one ART node for the branch (cf. (1) in
        Figure 10).  Children become compact branches one level deeper.

        Transactional: the ART node and its child wrappers are built off
        to the side and attached with a single swap; an exception anywhere
        before the swap (allocation, label collection, an injected fault)
        leaves the branch compact and all counters untouched.
        """
        if branch.expanded or branch.detached:
            return False
        fault_point("trie.expand.read")
        entries = self._fst.children(branch.fst_node)
        fault_point("trie.expand.build")
        node = art_node_for_fanout(len(entries))
        new_branches = 0
        for label, child, value in entries:
            if value is not None:
                node.set_child(label, value)
            else:
                node.set_child(label, TrieBranch(child, branch.level + 1))
                new_branches += 1
        fault_point("trie.expand.swap")
        branch.art_node = node
        self._art_bytes += node.size_bytes()
        self._num_branches += new_branches
        counts = self.counters.counts
        counts["migration:fst->art"] += 1
        counts["migration_label:fst->art"] += len(entries)
        return True

    def compact_branch(self, branch: TrieBranch) -> bool:
        """ART -> FST: drop the materialized node, keep the node number
        (cf. (2) in Figure 10).  Nested expanded descendants are dropped
        with it; their wrappers are detached so tracking can evict them.

        Transactional: descendants are *collected* first (read-only), and
        only then detached — the exception-free mutation phase happens
        entirely after the last injection point, so a failed compaction
        changes nothing.
        """
        if not branch.expanded or branch.detached:
            return False
        fault_point("trie.compact.collect")
        descendants = list(_branches_under(branch.art_node))
        fault_point("trie.compact.swap")
        self._art_bytes -= branch.art_node.size_bytes() + sum(
            child.art_node.size_bytes() for child in descendants if child.expanded
        )
        branch.art_node = None
        for child in descendants:
            child.detached = True
            self._num_branches -= 1
            self.manager.forget(child)
        self.counters.counts["migration:art->fst"] += 1
        return True

    # ------------------------------------------------------------------
    # Offline training (Section 3.2)
    # ------------------------------------------------------------------
    def train(
        self,
        workload_keys: Sequence[bytes],
        budget: Optional[MemoryBudget] = None,
        rounds: int = 4,
    ) -> int:
        """Expand the branches a historic workload touches most.

        Replays ``workload_keys`` (without sampling), ranks touched
        branches by frequency, and expands best-first until the budget is
        hit.  Because expansion reveals one more level of branches, the
        trace is replayed for up to ``rounds`` refinement rounds.
        """
        budget = budget or MemoryBudget.unbounded()
        was_adaptive = self.adaptive
        self.adaptive = False
        migrated = 0
        try:
            for _ in range(rounds):
                trace = []
                for key in workload_keys:
                    branch = self._branch_on_path(key)
                    if branch is not None:
                        trace.append((branch, AccessType.READ))
                if not trace:
                    break
                progressed = False
                for branch in rank_units(trace):
                    if budget.exceeded(self.size_bytes(), self.num_keys):
                        return migrated
                    if branch.expanded or branch.detached:
                        continue
                    if self.expand_branch(branch):
                        migrated += 1
                        progressed = True
                if not progressed:
                    break
        finally:
            self.adaptive = was_adaptive
        return migrated

    def _branch_on_path(self, key: bytes) -> Optional[TrieBranch]:
        """The first compact branch a lookup for ``key`` crosses."""
        current = self._root
        depth = 0
        while True:
            if isinstance(current, TrieBranch):
                if not current.expanded:
                    return current
                current = current.art_node
                continue
            if current is None or depth >= len(key):
                return None
            child = current.find_child(key[depth])
            depth += 1
            if child is None or isinstance(child, int):
                return None
            current = child

    # ------------------------------------------------------------------
    # AdaptiveIndex protocol
    # ------------------------------------------------------------------
    def tracked_population(self) -> int:
        """Number of trackable units (n in Equation 1)."""
        return max(1, self._num_branches)

    @property
    def num_keys(self) -> int:
        """Number of indexed keys."""
        return self._num_keys

    def encoding_of(self, identifier: Hashable) -> Optional[TrieEncoding]:
        """Current encoding of a tracked unit (AdaptiveIndex protocol)."""
        if isinstance(identifier, TrieBranch) and not identifier.detached:
            return identifier.encoding
        return None

    def migrate(
        self,
        identifier: Hashable,
        target_encoding: TrieEncoding,
        context: object,
    ) -> bool:
        """Re-encode one unit via its callback (AdaptiveIndex protocol)."""
        if not isinstance(identifier, TrieBranch):
            return False
        if target_encoding is TrieEncoding.ART:
            return self.expand_branch(identifier)
        return self.compact_branch(identifier)

    def encoding_census(self) -> Dict[TrieEncoding, Tuple[int, float]]:
        """Encoding -> (count, avg bytes) map (AdaptiveIndex protocol)."""
        expanded_sizes: List[int] = []
        compact_count = 0
        for branch in self.branches():
            if branch.expanded:
                expanded_sizes.append(branch.art_node.size_bytes())
            else:
                compact_count += 1
        census: Dict[TrieEncoding, Tuple[int, float]] = {}
        census[TrieEncoding.FST] = (compact_count, float(BRANCH_POINTER_BYTES))
        if expanded_sizes:
            census[TrieEncoding.ART] = (
                len(expanded_sizes),
                sum(expanded_sizes) / len(expanded_sizes),
            )
        return census

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fst(self) -> FST:
        """The underlying global FST."""
        return self._fst

    @property
    def num_branches(self) -> int:
        """Number of live tracked branches."""
        return self._num_branches

    def expanded_branch_count(self) -> int:
        """Number of branches currently expanded to ART."""
        return sum(1 for branch in self.branches() if branch.expanded)

    def size_bytes(self) -> int:
        """Modeled footprint: the (complete, static) FST plus every
        materialized ART node plus per-branch pointer bookkeeping."""
        return (
            self._fst.size_bytes()
            + self._num_branches * BRANCH_POINTER_BYTES
            + self._art_bytes
        )

    def stats(self) -> dict:
        """The uniform stats dict plus the trie's shape and the sampling
        framework's own bytes."""
        stats = super().stats()
        stats["art_levels"] = self.art_levels
        stats["num_branches"] = self._num_branches
        stats["expanded_branches"] = self.expanded_branch_count()
        stats["total_size_bytes"] = stats["size_bytes"] + self.manager.size_bytes()
        return stats
