#!/usr/bin/env python
"""Offline training vs online adaptation under a workload shift.

Section 3.2 of the paper: when the workload is known beforehand, a hybrid
index can be *trained* offline — no sampling overhead, perfect layout for
the predicted pattern.  But predictions go stale.  This example trains one
tree on phase-1 traffic, lets another adapt online, then *shifts* the hot
range; the trained tree is stuck with yesterday's layout while the
adaptive tree recovers.

Run:  python examples/trained_vs_adaptive.py
"""

import numpy as np

from repro import AdaptiveBPlusTree
from repro.core.access import AccessType
from repro.core.budget import MemoryBudget
from repro.core.trained import train_offline
from repro.bptree.leaves import LeafEncoding
from repro.harness.experiments import scaled_manager_config
from repro.harness.report import format_table
from repro.harness.runner import cost_events
from repro.sim.costmodel import CostModel

NUM_KEYS = 30_000
OPS_PER_PHASE = 60_000
HOT = 400


def drive(tree, hot_keys, rng, cost_model):
    """Run one phase of skewed lookups; return modeled ns/op."""
    before = cost_events(tree)
    for _ in range(OPS_PER_PHASE):
        tree.lookup(hot_keys[rng.integers(0, len(hot_keys))])
    events = {event: count - before.get(event, 0) for event, count in cost_events(tree).items()}
    return cost_model.price(events) / OPS_PER_PHASE


def main() -> None:
    pairs = [(key * 11, key) for key in range(NUM_KEYS)]
    rng = np.random.default_rng(0)
    cost_model = CostModel()
    phase1_hot = [pairs[index][0] for index in range(HOT)]
    phase2_hot = [pairs[-index - 1][0] for index in range(HOT)]

    adaptive = AdaptiveBPlusTree.bulk_load_adaptive(
        pairs, leaf_capacity=64, manager_config=scaled_manager_config()
    )

    trained = AdaptiveBPlusTree.bulk_load_adaptive(pairs, leaf_capacity=64)
    trained.manager.disable()
    trace = [(trained.find_leaf(key)[0], AccessType.READ) for key in phase1_hot * 20]
    migrations = train_offline(
        trained, trace, LeafEncoding.GAPPED,
        MemoryBudget.absolute(2 * trained.size_bytes()),
    )
    print(f"offline training expanded {migrations} leaves for the phase-1 hot set\n")

    rows = []
    for phase_name, hot_keys in (("phase 1 (trained-for)", phase1_hot),
                                 ("phase 2 (shifted)", phase2_hot)):
        adaptive_ns = drive(adaptive, hot_keys, rng, cost_model)
        trained_ns = drive(trained, hot_keys, rng, cost_model)
        rows.append((phase_name, round(trained_ns, 1), round(adaptive_ns, 1)))

    print(format_table(
        ["workload phase", "trained ns/op", "adaptive ns/op"],
        rows,
        title="Modeled lookup latency: offline-trained vs online-adaptive",
    ))
    print("\nphase 1: the trained tree wins slightly (zero sampling overhead);")
    print("phase 2: its layout is stale, while the adaptive tree re-expanded "
          f"({adaptive.manager.counters.expansions} expansions, "
          f"{adaptive.manager.counters.compactions} compactions in total).")


if __name__ == "__main__":
    main()
