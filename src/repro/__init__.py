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
  batched traffic across per-shard adaptation managers, each under the
  memory budget its shard's index builder set.

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

from __future__ import annotations

import importlib
from typing import Any, Dict, List

__version__ = "0.1.0"

#: The module each export lives in.  An export is imported the first time
#: it is read (a module ``__getattr__``, PEP 562), so importing one
#: subpackage — say ``repro.durability.codec`` — loads that subpackage
#: alone, not every index family.
_EXPORTS: Dict[str, str] = {
    "ART": "repro.art.tree",
    "AdaptiveBPlusTree": "repro.bptree.hybrid",
    "LeafEncoding": "repro.bptree.leaves",
    "BPlusTree": "repro.bptree.tree",
    "OlcBPlusTree": "repro.bptree.olc",
    "AccessType": "repro.core.access",
    "MemoryBudget": "repro.core.budget",
    "HashPartitioner": "repro.service.partition",
    "RangePartitioner": "repro.service.partition",
    "ShardRouter": "repro.service.router",
    "AdaptationManager": "repro.core.manager",
    "ManagerConfig": "repro.core.manager",
    "DualStageIndex": "repro.dualstage.index",
    "FaultInjector": "repro.faults.injector",
    "InjectedFault": "repro.faults.injector",
    "InvariantViolation": "repro.core.invariants",
    "validate": "repro.core.invariants",
    "FST": "repro.fst.trie",
    "HybridTrie": "repro.hybridtrie.tree",
    "CostModel": "repro.sim.costmodel",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # resolved once; later reads skip this hook
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
