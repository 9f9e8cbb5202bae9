"""Structural operation counters.

Every index in this reproduction increments named counters for the
structural work it performs; the cost model prices them.  Counter names
are plain strings so substrates can introduce their own events without
touching this module.  The events the cost model prices
(:data:`~repro.sim.costmodel.DEFAULT_COSTS_NS`; ``<...>`` names a
variable part; ``tests/sim/test_costmodel.py`` keeps the two in step):

============================  ==================================================
``inner_visit``               one B+-tree inner-node traversal step
``leaf_visit:<enc>``          one access to a Gapped/Packed/Succinct leaf
``leaf_write:<enc>``          one in-leaf mutation (insert/update/delete)
``leaf_rebuild_entry``        one entry a Succinct leaf write re-encodes
``leaf_split``                one leaf split
``migration:<src>-><dst>``    one leaf or trie-branch encoding migration
``migration_entry:<kind>``    one entry a leaf migration moves (cheap/recode)
``migration_label:fst->art``  one label an FST->ART expansion materializes
``art_visit``                 one ART node traversal step
``fst_dense_visit``           one LOUDS-dense node step
``fst_sparse_visit``          one LOUDS-sparse node step
``trie_value_fetch``          one value read at the end of a trie descent
``sample_check``              one is-sample gate evaluation
``sample_track``              one tracked sample (hash-map update)
``bloom_check``               one Bloom-filter membership test
``classify_item``             one item pass during classification
``heap_op``                   one heap push/replace during classification
``lock_acquire``              one sampling-map lock acquisition (Figure 18)
``lock_blocked``              one acquisition that waited
``lock_contention_pair``      one acquisition per other contender
``map_merge_entry``           one thread-local sample merged into the global map
``dynamic_stage_probe``       one Dual-Stage dynamic-stage probe
``static_stage_probe``        one Dual-Stage static-stage probe
``bloom_probe``               one Dual-Stage Bloom-filter probe
``merge_entry``               one entry a Dual-Stage merge moves
``static_scan_item``          one pair a scan takes from the static stage
============================  ==================================================

The sampling framework's bookkeeping (``sample_track`` through
``heap_op``) is tallied by the adaptation manager's
:class:`~repro.core.manager.ManagerCounters` and the contention events by
the Figure 18 run; ``repro.harness.runner.cost_events`` and that run add
them to an index's own counts before pricing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Iterator, Tuple


class OpCounters:
    """A named-event counter with merge and snapshot support."""

    def __init__(self) -> None:
        #: The live event -> count table; per-access paths charge it in
        #: place (``counts[event] += n``, no Python frame).  Not a
        #: ``Counter``, whose Python ``__delitem__`` makes a store ~3x slower.
        self.counts: DefaultDict[str, int] = defaultdict(int)

    def get(self, event: str) -> int:
        """The count of ``event``; 0 when it never happened."""
        return self.counts.get(event, 0)

    def merge(self, other: "OpCounters") -> None:
        """Merge another instance's contents into this one."""
        for event, amount in other.counts.items():
            self.counts[event] += amount

    def snapshot(self) -> Dict[str, int]:
        """A copy of the current counts."""
        return dict(self.counts)

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Events since ``earlier`` (a previous :meth:`snapshot`).

        Walks a snapshot: a replica's reader diffs outside the copy's
        lock while a writer may add a first-seen event under it.
        """
        result = {}
        for event, count in self.snapshot().items():
            delta = count - earlier.get(event, 0)
            if delta:
                result[event] = delta
        return result

    def reset(self) -> None:
        """Clear all state."""
        self.counts.clear()

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self.counts.items())

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        top = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items())[:6])
        return f"OpCounters({top}{'...' if len(self.counts) > 6 else ''})"
