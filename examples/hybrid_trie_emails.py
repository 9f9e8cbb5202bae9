#!/usr/bin/env python
"""String-key scenario: adaptive Hybrid Trie over e-mail addresses.

Host-reversed e-mail keys (``com.bluemail@alice``) are indexed four ways:
plain ART (fast, large), plain FST (compact, slow), the adaptive Hybrid
Trie, and an offline-trained Hybrid Trie.  A Zipf point-lookup workload
lets the adaptive trie expand its hot branches; the example prints the
space/performance frontier of Figure 19.

Run:  python examples/hybrid_trie_emails.py
"""

import numpy as np

from repro import ART, FST, HybridTrie
from repro.art.tree import terminated
from repro.core.budget import MemoryBudget
from repro.harness.experiments import scaled_trie_manager_config
from repro.harness.report import format_table, human_bytes
from repro.harness.runner import cost_events
from repro.sim.costmodel import CostModel
from repro.workloads.datasets import email_keys
from repro.workloads.distributions import zipf_indices

NUM_EMAILS = 8_000
NUM_LOOKUPS = 40_000
ART_LEVELS = 8  # the paper stores the upper 9 levels in ART


def measure(name, index, byte_keys, query_ranks, cost_model):
    before = cost_events(index)
    for rank in query_ranks:
        index.lookup(byte_keys[rank])
    events = {event: count - before.get(event, 0) for event, count in cost_events(index).items()}
    modeled_ns = cost_model.price(events) / len(query_ranks)
    return (name, round(modeled_ns, 1), human_bytes(index.size_bytes()))


def main() -> None:
    rng = np.random.default_rng(0)
    byte_keys = [terminated(key) for key in email_keys(NUM_EMAILS, rng)]
    pairs = [(key, rank) for rank, key in enumerate(byte_keys)]
    print(f"indexing {len(pairs):,} e-mail addresses "
          f"(avg {sum(map(len, byte_keys)) / len(byte_keys):.1f} bytes) ...")

    cost_model = CostModel()
    query_ranks = zipf_indices(NUM_EMAILS, NUM_LOOKUPS, alpha=1.0, rng=rng)

    art = ART.from_sorted(pairs)
    fst = FST(pairs)
    adaptive = HybridTrie(pairs, art_levels=ART_LEVELS,
                          manager_config=scaled_trie_manager_config())
    trained = HybridTrie(pairs, art_levels=ART_LEVELS, adaptive=False)
    trained.train(
        [byte_keys[rank] for rank in query_ranks[: NUM_LOOKUPS // 4]],
        budget=MemoryBudget.absolute(2 * trained.size_bytes()),
    )

    rows = [
        measure("ART", art, byte_keys, query_ranks, cost_model),
        measure("FST", fst, byte_keys, query_ranks, cost_model),
        measure("AHI-Trie (adaptive)", adaptive, byte_keys, query_ranks, cost_model),
        measure("Hybrid Trie (trained)", trained, byte_keys, query_ranks, cost_model),
    ]
    print()
    print(format_table(["index", "modeled ns/lookup", "size"], rows,
                       title="Zipf point lookups on e-mail keys (Figure 19 shape)"))
    print(f"\nadaptive trie expanded {adaptive.expanded_branch_count()} hot branches "
          f"across {adaptive.manager.counters.adaptation_phases} adaptation phases")

    # Range scans work across the hybrid ART/FST boundary too.
    start = byte_keys[NUM_EMAILS // 2]
    scan = adaptive.scan(start, 5)
    print("\nsample scan from", start.rstrip(b'\\x00').decode(), ":")
    for key, value in scan:
        print("   ", key.rstrip(b"\x00").decode())


if __name__ == "__main__":
    main()
