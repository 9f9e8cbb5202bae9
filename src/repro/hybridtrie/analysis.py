"""Design analyses for the Hybrid Trie.

The paper reports a negative result (Section 4.2.2): storing one FST per
cold subtree — instead of one global FST — would let hot subtrees be cut
out entirely, but "as each FST adds some storage overhead (for header
information and auxiliary data structures), this approach did not pay
off".  :func:`multi_fst_overhead` quantifies that trade-off for a built
trie, reproducing the reasoning that led the paper to a single global
FST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hybridtrie.tree import HybridTrie

# Modeled fixed cost of one stand-alone FST instance: object header,
# level directory, value-array pointer, and the per-structure rank/select
# directories' base cost.  Conservative relative to real SuRF instances.
PER_FST_HEADER_BYTES = 96


@dataclass(frozen=True)
class MultiFstEstimate:
    """Single-global-FST vs one-FST-per-cold-branch size comparison."""

    branch_count: int
    single_fst_bytes: int       # the global FST (payload shared by all)
    multi_fst_payload_bytes: int  # per-branch payloads, summed
    multi_fst_header_bytes: int   # per-branch fixed overhead, summed

    @property
    def multi_fst_total_bytes(self) -> int:
        """Summed payload plus per-instance headers."""
        return self.multi_fst_payload_bytes + self.multi_fst_header_bytes

    @property
    def pays_off(self) -> bool:
        """True iff splitting the FST would actually save memory."""
        return self.multi_fst_total_bytes < self.single_fst_bytes


def _subtree_payload_bytes(trie: HybridTrie, node: int) -> int:
    """Approximate LOUDS payload of the subtree rooted at ``node``.

    Each reachable label costs ~1 byte of labels + 2 bits of bitmaps in
    the sparse encoding, plus 8 bytes per stored value — the same
    arithmetic the global FST's size model uses, restricted to the
    subtree.
    """
    labels = 0
    values = 0
    stack = [node]
    fst = trie.fst
    while stack:
        current = stack.pop()
        for _, child, value in fst.children(current):
            labels += 1
            if value is not None:
                values += 1
            else:
                stack.append(child)
    return labels + (labels + 3) // 4 + 8 * values


def multi_fst_overhead(
    trie: HybridTrie,
    per_fst_header_bytes: int = PER_FST_HEADER_BYTES,
    max_branches: Optional[int] = None,
) -> MultiFstEstimate:
    """Estimate the cost of one stand-alone FST per compact branch.

    Walks the trie's current compact branches (the subtrees that *would*
    each become their own FST) and compares their summed payload plus
    per-instance headers against the single global FST.
    """
    payload = 0
    count = 0
    for branch in trie.branches():
        if branch.expanded:
            continue
        if max_branches is None or count < max_branches:
            payload += _subtree_payload_bytes(trie, branch.fst_node)
        count += 1
    return MultiFstEstimate(
        branch_count=count,
        single_fst_bytes=trie.fst.size_bytes(),
        multi_fst_payload_bytes=payload,
        multi_fst_header_bytes=count * per_fst_header_bytes,
    )
