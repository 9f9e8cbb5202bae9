"""The Hybrid B+-tree substrate (Section 4.1 of the paper).

:class:`~repro.bptree.tree.BPlusTree` is a full B+-tree (insert, delete,
point lookup, range scan, bulk load) whose leaves all use one of three
encodings — *Gapped*, *Packed*, or *Succinct* (Figure 8).  These
single-encoding trees are the paper's baselines.

:class:`~repro.bptree.hybrid.AdaptiveBPlusTree` (AHI-BTree) wires a
:class:`~repro.core.manager.AdaptationManager` into the tree so that hot
leaves are expanded to the Gapped encoding and cold leaves compacted to
the Succinct one at run-time.
"""

from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding, LeafNode
from repro.bptree.olc import OlcBPlusTree
from repro.bptree.tree import BPlusTree

__all__ = [
    "AdaptiveBPlusTree",
    "BPlusTree",
    "LeafEncoding",
    "LeafNode",
    "OlcBPlusTree",
]
