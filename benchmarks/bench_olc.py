"""Optimistic Lock Coupling vs coarse locking (Section 4.1.5 substrate).

The paper synchronizes the Hybrid B+-tree with OLC because it "scales
significantly better on multi-core systems [than lock coupling], because
it minimizes the number of acquired locks".  Under Python's GIL no real
scaling is possible, so this benchmark verifies the *protocol* property
instead: OLC acquires zero locks on the read path (restarts replace
locks), while a coarse-locked tree takes one lock per operation.
"""

import random
import threading

from conftest import banner, run_once

from repro.bptree.leaves import LeafEncoding
from repro.bptree.olc import OlcBPlusTree
from repro.bptree.tree import BPlusTree
from repro.harness.report import format_table

NUM_KEYS = 20_000
OPS_PER_THREAD = 4_000
THREADS = 4


class CoarseLockedTree:
    """The baseline: every operation under one mutex."""

    def __init__(self, pairs):
        self._tree = BPlusTree.bulk_load(pairs, LeafEncoding.GAPPED, leaf_capacity=32)
        self._lock = threading.Lock()
        self.lock_acquisitions = 0

    def lookup(self, key):
        with self._lock:
            self.lock_acquisitions += 1
            return self._tree.lookup(key)

    def insert(self, key, value):
        with self._lock:
            self.lock_acquisitions += 1
            return self._tree.insert(key, value)


def run_mixed_workload(tree, keys, threads=THREADS, write_share=0.2):
    errors = []

    def worker(thread_index):
        rng = random.Random(thread_index)
        try:
            for step in range(OPS_PER_THREAD):
                key = keys[rng.randrange(len(keys))]
                if rng.random() < write_share:
                    tree.insert(key + rng.randrange(1, 4096), step)
                else:
                    tree.lookup(key)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    assert not errors


def test_olc_vs_coarse_locking(benchmark):
    rng = random.Random(0)
    keys = sorted(rng.sample(range(2**40), NUM_KEYS))
    pairs = [(key, key) for key in keys]

    def run_both():
        olc = OlcBPlusTree(LeafEncoding.GAPPED, leaf_capacity=32)
        olc._bulk_load_into(pairs, 0.7)
        run_mixed_workload(olc, keys)
        coarse = CoarseLockedTree(pairs)
        run_mixed_workload(coarse, keys)
        return olc, coarse

    olc, coarse = run_once(benchmark, run_both)
    total_ops = THREADS * OPS_PER_THREAD

    rows = [
        ("OLC", 0, olc.restarts, len(olc)),
        ("coarse lock", coarse.lock_acquisitions, 0, len(coarse._tree)),
    ]
    print(banner("OLC vs coarse locking (4 threads, 20% writes)"))
    print(format_table(["tree", "read-path locks", "restarts", "final keys"], rows))

    # The OLC read path acquires no locks at all; the coarse tree takes
    # one per operation.
    assert coarse.lock_acquisitions == total_ops
    # Restarts stay rare relative to the operation count.
    assert olc.restarts < total_ops * 0.05
    # Both trees remain structurally sound.
    olc.verify()
    coarse._tree.verify()
