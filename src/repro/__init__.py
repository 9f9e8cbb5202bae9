"""repro — a Python reproduction of *Adaptive Hybrid Indexes* (SIGMOD '22).

The paper's contribution is a workload-adaptation framework that lets a
single index use different node encodings for different parts of itself,
chosen at run-time from sampled access statistics.  This package provides:

* :mod:`repro.core` — the adaptation framework (sampling, error-bounded
  top-k classification, heuristics, budgets, offline training,
  concurrent sampling strategies);
* :mod:`repro.bptree` — a full B+-tree with Gapped / Packed / Succinct
  leaf encodings and the adaptive AHI-BTree;
* :mod:`repro.art` / :mod:`repro.fst` / :mod:`repro.hybridtrie` — the
  Adaptive Radix Tree, the Fast Succinct Trie, and the adaptive
  level-wise AHI-Trie combining them;
* :mod:`repro.dualstage` — the Dual-Stage hybrid index baseline;
* :mod:`repro.workloads` — the paper's datasets and workloads W1.1-W6.2;
* :mod:`repro.sim` — structural operation counters and the calibrated
  cost model (the documented substitution for hardware timing);
* :mod:`repro.harness` — the experiment runner and one entry point per
  paper table/figure;
* :mod:`repro.service` — a sharded concurrent index service routing
  batched traffic across per-shard adaptation managers under one
  global memory budget.

Quickstart::

    from repro import AdaptiveBPlusTree, ManagerConfig, MemoryBudget
    from repro.bptree.hybrid import BTREE_ENCODING_ORDER

    config = ManagerConfig(
        encoding_order=BTREE_ENCODING_ORDER, budget=MemoryBudget.absolute(2_000_000)
    )
    tree = AdaptiveBPlusTree.bulk_load_adaptive(
        [(key, key * 2) for key in range(100_000)], manager_config=config
    )
    tree.lookup(42)            # accesses are sampled transparently
    tree.manager.events        # adaptation phases, migrations, sizes
"""

from repro.art.tree import ART
from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.olc import OlcBPlusTree
from repro.bptree.tree import BPlusTree
from repro.core.access import AccessType
from repro.core.budget import MemoryBudget
from repro.core.manager import AdaptationManager, ManagerConfig
from repro.core.invariants import InvariantViolation, validate
from repro.dualstage.index import DualStageIndex
from repro.faults.injector import FaultInjector, InjectedFault
from repro.fst.trie import FST
from repro.hybridtrie.tree import HybridTrie
from repro.service.partition import HashPartitioner, RangePartitioner
from repro.service.router import ShardRouter
from repro.sim.costmodel import CostModel

__version__ = "0.1.0"

__all__ = [
    "ART",
    "AdaptiveBPlusTree",
    "LeafEncoding",
    "BPlusTree",
    "OlcBPlusTree",
    "AccessType",
    "MemoryBudget",
    "HashPartitioner",
    "RangePartitioner",
    "ShardRouter",
    "AdaptationManager",
    "ManagerConfig",
    "DualStageIndex",
    "FaultInjector",
    "InjectedFault",
    "InvariantViolation",
    "validate",
    "FST",
    "HybridTrie",
    "CostModel",
    "__version__",
]
