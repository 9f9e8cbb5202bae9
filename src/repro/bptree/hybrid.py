"""AHI-BTree: the workload-adaptive Hybrid B+-tree (Section 4.1).

Subclasses :class:`~repro.bptree.tree.BPlusTree`, defaults all leaves to
the Succinct (cold) encoding, and wires an
:class:`~repro.core.manager.AdaptationManager` into the base tree's
access paths through its hooks — every lookup, insert, update, delete
and scan is the inherited one, and so are the per-key ``lookup_many`` /
``insert_many`` defaults of the index contract:

* the leaf-access hook passes each access through the sample gate and
  ``track()``-s the sampled ones with the leaf's parent as context;
* the before-insert hook *eagerly* migrates a Succinct leaf to Gapped
  (the paper: "AHI-BTree eagerly migrates Succinct nodes to the Gapped
  encoding on inserts and defers their compaction until they are cold
  again"), but only while the memory budget has the headroom a manager
  expansion needs (utilization below the CSHF's
  ``BUDGET_EXPAND_CEILING``): past it, every byte a compaction frees would
  go to re-encoding whichever cold leaf takes the next insert, only for
  the manager to compact that leaf again two phases later;
* leaf splits propagate the changed context to the manager, and an
  emptied leaf is forgotten;
* the manager calls back into :meth:`migrate` / :meth:`encoding_census` /
  :meth:`size_bytes` to drive encoding migrations under the configured
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
        self, leaf: LeafNode, parent: Optional[InnerNode], access: AccessType
    ) -> None:
        """Pass one access through the sample gate (Listing 1's
        ``is_sample``, charged in place) and track it, with the leaf's
        parent as context, when it is a sample."""
        self.counters.counts["sample_check"] += 1
        if self.manager.is_sample():
            self.manager.track(leaf, access, context=parent)

    def _before_leaf_insert(self, leaf: LeafNode, parent: Optional[InnerNode]) -> None:
        """Eager expansion: writes into compact leaves are expensive, so
        the tree switches the leaf to the write-optimized encoding
        immediately and lets the next cold classification compact it —
        while the budget has the headroom a manager expansion needs
        (:meth:`~repro.core.manager.AdaptationManager.has_expansion_headroom`).
        Without it the insert writes into the compact leaf.  The
        manager's counters tally expansions, refusals and failures (the
        cost model prices the migration's own events, not these)."""
        if leaf.encoding is LeafEncoding.GAPPED or not self.eager_insert_expansion:
            return
        manager = self.manager
        if not manager.has_expansion_headroom():
            manager.counters.eager_expansions_refused += 1
            return
        before = leaf.size_bytes()
        try:
            migrated = migrate_leaf(leaf, LeafEncoding.GAPPED, self.counters)
        # repro: ignore[RA002] -- deliberate containment: a failed eager
        # expansion must never fail the insert that triggered it.
        except Exception:
            # A failed eager expansion is an optimization miss, not an
            # error: the transactional migration left the leaf intact, so
            # the insert proceeds on the old encoding.
            manager.counters.eager_expansion_failures += 1
            migrated = False
        if migrated:
            self.note_leaf_resized(leaf.size_bytes() - before)
            manager.counters.eager_expansions += 1
            # Register so a later cold classification compacts it.
            manager.register(leaf, context=parent)

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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def encoding_counts(self) -> Dict[LeafEncoding, int]:
        """Encoding -> leaf count for the current layout."""
        counts: Dict[LeafEncoding, int] = {}
        for leaf in self.leaves():
            counts[leaf.encoding] = counts.get(leaf.encoding, 0) + 1
        return counts

    def stats(self) -> dict:
        """The tree's stats plus the sampling framework's own bytes (an
        adaptive tree's leaves have no one encoding) and what eager
        expansion did: leaves expanded on insert, and expansions the
        budget's headroom refused."""
        stats = super().stats()
        del stats["leaf_encoding"]
        stats["total_size_bytes"] = stats["size_bytes"] + self.manager.size_bytes()
        counters = self.manager.counters
        stats["eager_expansions"] = counters.eager_expansions
        stats["eager_expansions_refused"] = counters.eager_expansions_refused
        return stats
