"""Figure 18: concurrent workload adaptation — GS vs TLS.

Worker threads execute a Zipf workload against a shared Hybrid B+-tree
while sampling with one of two strategies: a **global** map (GS: a dict
under one lock, taken on every record and for the whole adaptation phase)
or **thread-local** maps (TLS: lock-free recording, one merge per phase).
Tree mutations are guarded by a single tree lock in both arms (identical
cost), so the measured difference isolates the sampling strategy — the
contrast the paper's Figure 18 draws.

Python's GIL caps real parallel speedup; both the wall-clock throughput
(honest) and a modeled throughput including priced contention events are
reported.  The TLS-over-GS ordering is a synchronization-structure
property that survives the GIL.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.core.access import AccessType
from repro.core.concurrency import (
    ConcurrentSampler,
    GlobalSampling,
    SamplingStrategy,
    ThreadLocalSampling,
)
from repro.core.topk import TopKClassifier
from repro.bptree.migrate import migrate_leaf
from repro.sim.costmodel import CostModel
from repro.workloads.datasets import osm_like_keys
from repro.workloads.distributions import zipf_indices
from repro.workloads.spec import OpKind
from repro.workloads.stream import Operation


class ConcurrentAdaptiveRun:
    """One multi-threaded run of a workload with a sampling strategy."""

    def __init__(
        self,
        tree: BPlusTree,
        strategy: SamplingStrategy,
        skip_length: int = 10,
        sample_size: int = 300,
        hot_k: int = 64,
    ) -> None:
        self.tree = tree
        self.strategy = strategy
        self.sampler = ConcurrentSampler(skip_length)
        self.sample_size = sample_size
        self.hot_k = hot_k
        self.tree_lock = threading.Lock()
        self.adaptation_lock = threading.Lock()
        self.epoch = 1
        self.adaptations = 0
        self.migrations = 0

    def _execute(self, op: Operation) -> None:
        if op.kind is OpKind.READ:
            try:
                # Optimistic read (the paper uses optimistic lock coupling):
                # concurrent splits can force a retry under the lock.
                leaf, _ = self.tree.find_leaf(op.key)
                leaf.lookup(op.key)
            except (IndexError, KeyError):
                with self.tree_lock:
                    leaf, _ = self.tree.find_leaf(op.key)
                    leaf.lookup(op.key)
        elif op.kind is OpKind.SCAN:
            with self.tree_lock:
                self.tree.scan(op.key, op.scan_length)
            return
        else:  # insert / update
            with self.tree_lock:
                self.tree.insert(op.key, op.value)
            leaf, _ = self.tree.find_leaf(op.key)
        if self.sampler.is_sample():
            access = AccessType.READ if op.kind is OpKind.READ else AccessType.INSERT
            self.strategy.record(leaf, access, self.epoch)
            if self.strategy.sampled_count() >= self.sample_size:
                self._adapt()

    def _adapt(self) -> None:
        # One worker runs the adaptation; the rest keep sampling (TLS) or
        # block on the strategy's own lock (GS drain).
        if not self.adaptation_lock.acquire(blocking=False):
            return
        try:
            samples = self.strategy.drain()
            classifier = TopKClassifier(self.hot_k)
            for leaf, stats in samples.items():
                classifier.offer(leaf, stats.frequency())
            hot = classifier.hot_items()
            with self.tree_lock:
                for leaf in samples:
                    target = (
                        LeafEncoding.GAPPED if leaf in hot else LeafEncoding.SUCCINCT
                    )
                    if leaf.encoding is not target and migrate_leaf(
                        leaf, target, self.tree.counters
                    ):
                        self.migrations += 1
            self.epoch += 1
            self.adaptations += 1
        finally:
            self.adaptation_lock.release()

    def run(self, per_thread_ops: List[List[Operation]]) -> float:
        """Execute; returns wall seconds.

        A worker that raises does not finish its operations, so its
        exception is re-raised here once every thread has joined rather
        than priced as completed work.
        """
        errors: List[BaseException] = []
        threads = [
            threading.Thread(target=self._worker, args=(operations, errors), daemon=True)
            for operations in per_thread_ops
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return elapsed

    def _worker(self, operations: List[Operation], errors: List[BaseException]) -> None:
        try:
            for op in operations:
                self._execute(op)
        except BaseException as error:  # noqa: BLE001 - re-raised by run()
            errors.append(error)


def experiment_fig18(
    num_keys: int = 30_000,
    ops_per_thread: int = 8_000,
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16),
    write_fraction_w51: float = 0.80,
    seed: int = 0,
) -> Dict:
    """GS vs TLS throughput for the write-heavy W5.1 and the read/scan
    W5.2 mixes, across worker-thread counts."""
    rng = np.random.default_rng(seed)
    keys = osm_like_keys(num_keys, rng)
    pairs = [(int(key), rank) for rank, key in enumerate(keys)]
    cost_model = CostModel()
    rows = []
    for workload_label, write_fraction in (("W5.1 writes", write_fraction_w51), ("W5.2 reads", 0.0)):
        for threads in thread_counts:
            for strategy_name in ("GS", "TLS"):
                per_thread_ops = []
                for thread_index in range(threads):
                    thread_rng = np.random.default_rng(seed + 13 * thread_index + 1)
                    indices = zipf_indices(num_keys, ops_per_thread, alpha=1.0, rng=thread_rng)
                    writes = thread_rng.random(ops_per_thread) < write_fraction
                    operations = []
                    for position in range(ops_per_thread):
                        key = int(keys[indices[position]])
                        if writes[position]:
                            operations.append(
                                Operation(OpKind.INSERT, key + int(thread_rng.integers(1, 512)), value=position)
                            )
                        else:
                            operations.append(Operation(OpKind.READ, key))
                    per_thread_ops.append(operations)
                tree = BPlusTree.bulk_load(pairs, LeafEncoding.SUCCINCT, leaf_capacity=64)
                if strategy_name == "GS":
                    strategy = GlobalSampling()
                else:
                    strategy = ThreadLocalSampling()
                run = ConcurrentAdaptiveRun(tree, strategy)
                wall_seconds = run.run(per_thread_ops)
                total_ops = threads * ops_per_thread
                wall_mops = total_ops / wall_seconds / 1e6
                # Modeled throughput: price tree events + contention events.
                events = dict(tree.counters.snapshot())
                counters = strategy.counters
                events["lock_acquire"] = counters.lock_acquisitions
                events["lock_blocked"] = counters.blocked_acquisitions
                # Contention scales with how many *other* threads hammer
                # the same lock; TLS takes its lock ~once per thread so the
                # term is negligible there by construction.
                events["lock_contention_pair"] = (
                    counters.lock_acquisitions * max(0, threads - 1)
                )
                events["map_merge_entry"] = counters.merges * run.sample_size
                modeled_ns = cost_model.price(events) / total_ops
                modeled_mops = threads * (1000.0 / modeled_ns) if modeled_ns else 0.0
                rows.append(
                    (
                        workload_label,
                        threads,
                        strategy_name,
                        round(wall_mops, 3),
                        round(modeled_mops, 2),
                        strategy.memory_bytes(),
                        run.adaptations,
                    )
                )
    return {
        "headers": [
            "workload",
            "threads",
            "strategy",
            "wall_Mops",
            "modeled_Mops",
            "sampling_bytes",
            "adaptations",
        ],
        "rows": rows,
    }
