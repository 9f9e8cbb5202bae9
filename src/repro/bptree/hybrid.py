"""AHI-BTree: the workload-adaptive Hybrid B+-tree (Section 4.1).

Subclasses :class:`~repro.bptree.tree.BPlusTree`, defaults all leaves to
the Succinct (cold) encoding, and wires an
:class:`~repro.core.manager.AdaptationManager` into the base tree's
access paths through its hooks — every lookup, insert, update, delete,
scan and batched operation is the inherited one:

* the leaf-access hook passes each access through the sample gate and
  ``track()``-s the sampled ones with the leaf's parent as context;
* the before-insert hook *eagerly* migrates a Succinct leaf to Gapped
  (the paper: "AHI-BTree eagerly migrates Succinct nodes to the Gapped
  encoding on inserts and defers their compaction until they are cold
  again");
* leaf splits propagate the changed context to the manager, and an
  emptied leaf is forgotten;
* the manager calls back into :meth:`migrate` / :meth:`encoding_census` /
  :meth:`used_memory` to drive encoding migrations under the configured
  memory budget.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.bptree.inner import InnerNode
from repro.bptree.leaves import DEFAULT_LEAF_CAPACITY, LeafEncoding, LeafNode
from repro.bptree.migrate import migrate_leaf
from repro.bptree.tree import DEFAULT_INNER_FANOUT, BPlusTree
from repro.core.access import AccessType
from repro.core.manager import AdaptationManager, ManagerConfig

# Encodings ordered compact -> fast, as the manager expects.
BTREE_ENCODING_ORDER: Tuple[LeafEncoding, ...] = (
    LeafEncoding.SUCCINCT,
    LeafEncoding.PACKED,
    LeafEncoding.GAPPED,
)


class AdaptiveBPlusTree(BPlusTree):
    """The adaptive Hybrid B+-tree (AHI-BTree)."""

    stats_family = "bptree_adaptive"

    def __init__(
        self,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        inner_fanout: int = DEFAULT_INNER_FANOUT,
        cold_encoding: LeafEncoding = LeafEncoding.SUCCINCT,
        manager_config: Optional[ManagerConfig] = None,
        eager_insert_expansion: bool = True,
    ) -> None:
        super().__init__(cold_encoding, leaf_capacity, inner_fanout)
        self.eager_insert_expansion = eager_insert_expansion
        if manager_config is None:
            manager_config = ManagerConfig(encoding_order=BTREE_ENCODING_ORDER)
        self.manager = AdaptationManager(self, manager_config)

    @classmethod
    def bulk_load_adaptive(
        cls,
        pairs: Sequence[Tuple[int, int]],
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        inner_fanout: int = DEFAULT_INNER_FANOUT,
        fill_factor: float = 0.70,
        cold_encoding: LeafEncoding = LeafEncoding.SUCCINCT,
        manager_config: Optional[ManagerConfig] = None,
        eager_insert_expansion: bool = True,
    ) -> "AdaptiveBPlusTree":
        """Bulk load sorted pairs, all leaves starting cold."""
        tree = cls(
            leaf_capacity=leaf_capacity,
            inner_fanout=inner_fanout,
            cold_encoding=cold_encoding,
            manager_config=manager_config,
            eager_insert_expansion=eager_insert_expansion,
        )
        tree._bulk_load_into(pairs, fill_factor)
        return tree

    # ------------------------------------------------------------------
    # The two access hooks (Section 4.1.3 / Table 4)
    # ------------------------------------------------------------------
    def _leaf_accessed(
        self,
        leaf: LeafNode,
        parent: Optional[InnerNode],
        access: AccessType,
        count: int = 1,
    ) -> None:
        """Pass ``count`` accesses to one leaf through the sample gate.

        One sampler drain models all of them; the sampler state and the
        tracked (leaf, access) events equal ``count`` single gates because
        every access in the group touches the same leaf.
        """
        self.counters.add("sample_check", count)
        for _ in self.manager.consume(count):
            self.manager.track(leaf, access, context=parent)

    def _before_leaf_insert(self, leaf: LeafNode, parent: Optional[InnerNode]) -> None:
        """Eager expansion: writes into compact leaves are expensive, so
        the tree switches the leaf to the write-optimized encoding
        immediately and lets the next cold classification compact it —
        unless the memory budget is already exhausted."""
        if leaf.encoding is LeafEncoding.GAPPED or not self.eager_insert_expansion:
            return
        budget = self.manager.config.budget
        if budget.exceeded(self.size_bytes(), self.num_keys):
            return
        source = leaf.encoding
        before = leaf.size_bytes()
        try:
            migrated = migrate_leaf(leaf, LeafEncoding.GAPPED, self.counters)
        # repro: ignore[RA002] -- deliberate containment: a failed eager
        # expansion must never fail the insert that triggered it.
        except Exception:
            # A failed eager expansion is an optimization miss, not an
            # error: the transactional migration left the leaf intact, so
            # the insert proceeds on the old encoding.
            self.counters.add(f"eager_expansion_failed:{source}")
            migrated = False
        if migrated:
            self.note_leaf_resized(leaf.size_bytes() - before)
            self.counters.add(f"eager_expansion:{source}")
            # Register so a later cold classification compacts it.
            self.manager.register(leaf, context=parent)

    # ------------------------------------------------------------------
    # Structural notifications (Section 4.1.4)
    # ------------------------------------------------------------------
    def _on_leaf_split(self, left: LeafNode, right: LeafNode) -> None:
        # The split may hang both halves under a (possibly new) parent;
        # refresh the tracked context lazily: parents are re-resolved on
        # the next sampled access, and the stale pointer is only used for
        # locality hints, so updating the left leaf's entry suffices here.
        self.manager.update_context(left, None)

    def _on_leaf_emptied(self, leaf: LeafNode) -> None:
        self.manager.forget(leaf)

    # ------------------------------------------------------------------
    # AdaptiveIndex protocol (manager callbacks)
    # ------------------------------------------------------------------
    def tracked_population(self) -> int:
        """Number of trackable units (n in Equation 1)."""
        return self.num_leaves

    def used_memory(self) -> int:
        """Modeled index size in bytes (AdaptiveIndex protocol)."""
        return self.size_bytes()

    def encoding_of(self, identifier: Hashable) -> Optional[LeafEncoding]:
        """Current encoding of a tracked unit (AdaptiveIndex protocol)."""
        if isinstance(identifier, LeafNode):
            if identifier.num_entries() == 0 and identifier is not self._root:
                return None  # emptied leaf: treat as vanished
            return identifier.encoding
        return None

    def migrate(
        self,
        identifier: Hashable,
        target_encoding: LeafEncoding,
        context: object,
    ) -> bool:
        """Re-encode one unit via its callback (AdaptiveIndex protocol)."""
        if not isinstance(identifier, LeafNode):
            return False
        before = identifier.size_bytes()
        migrated = migrate_leaf(identifier, target_encoding, self.counters)
        if migrated:
            self.note_leaf_resized(identifier.size_bytes() - before)
        return migrated

    def encoding_census(self) -> Dict[LeafEncoding, Tuple[int, float]]:
        """Encoding -> (count, avg bytes) map (AdaptiveIndex protocol)."""
        return self.leaf_encoding_census()

    # num_keys property is inherited from BPlusTree and satisfies the
    # AdaptiveIndex protocol.

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_size_bytes(self) -> int:
        """Index plus the sampling framework's own footprint."""
        return self.size_bytes() + self.manager.size_bytes()

    def encoding_counts(self) -> Dict[LeafEncoding, int]:
        """Encoding -> leaf count for the current layout."""
        counts: Dict[LeafEncoding, int] = {}
        for leaf in self.leaves():
            counts[leaf.encoding] = counts.get(leaf.encoding, 0) + 1
        return counts

    def stats(self) -> dict:
        """Uniform stats dict including the adaptation block."""
        from repro.obs.introspect import base_stats

        stats = base_stats(
            self.stats_family,
            num_keys=self._num_keys,
            size_bytes=self.size_bytes(),
            census=self.leaf_encoding_census(),
            counters_snapshot=self.counters.snapshot(),
            manager=self.manager,
        )
        stats["height"] = self._height
        stats["num_leaves"] = self._num_leaves
        stats["total_size_bytes"] = self.total_size_bytes()
        return stats

