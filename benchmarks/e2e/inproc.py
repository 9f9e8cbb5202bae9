"""The three in-process workloads: one caller thread, no service code above them.

``router_batch`` isolates the ``ShardRouter`` fan-out, ``btree_adapt`` the
paper's sample -> classify -> migrate loop on the Hybrid B+-tree, and
``trie_adapt`` the FST/ART descent of the Hybrid Trie.  All three share
one closed loop: op ``i`` is ``calls[kind[i]](arg[i])``, timed on its own,
with its result kept for verification after the phase.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import calib
import check
import opstream
import spans
from opstream import GET, PUT, SCAN

from repro.art.tree import ART
from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.olc import OlcBPlusTree
from repro.core.budget import MemoryBudget
from repro.core.manager import AdaptationManager, ManagerConfig
from repro.hybridtrie.tree import TRIE_ENCODING_ORDER, HybridTrie
from repro.service.router import ShardRouter
from repro.service.shard import Shard

#: Slices per measured phase (see calib.py for why there are many).
SLICES = 100

#: Direct calls timed for the side measurements of a traced run.
SIDE_CALLS = 2_000


class InProcess:
    """Shared closed loop, measurement and traced-run plumbing."""

    name = ""
    #: ``{(class, method): (layer, sized_by)}`` — what a traced run wraps.
    wrapped: Dict[Tuple[Any, str], Tuple[str, Optional[int]]] = {}
    #: Layers shown per workload, as ``{metric: layer}`` busy self time per op.
    busy_metrics: Dict[str, str] = {}

    def __init__(
        self, seed: int, ops: Tuple[int, ...], keys: int, slice_share: float = 1.0
    ) -> None:
        self.seed, (self.ops,), self.num_keys = seed, ops, keys
        self.slices = max(10, int(SLICES * slice_share))
        self.recorder: Optional[spans.Recorder] = None
        self.kinds: List[int] = []
        self.args: list = []
        self.calls: List[Callable[[Any], Any]] = []
        self.latencies: List[float] = []
        self.results: List[Any] = []
        self.polls: List[Tuple[int, Any]] = []
        self.rss_kib = 0
        self.setup_seconds = 0.0

    # -- hooks ----------------------------------------------------------
    def build(self, staged: calib.Staged) -> None:
        """Generate data and stream, build the structure, one stage each."""
        raise NotImplementedError

    def bind(self) -> List[Callable[[Any], Any]]:
        """One callable per op kind (bound after a traced run has patched)."""
        raise NotImplementedError

    def size_and_keys(self) -> Tuple[int, int]:
        """``(size_bytes of all indexes, live keys)`` at the end of the run."""
        raise NotImplementedError

    def census(self) -> Any:
        """A cheap fingerprint of the encoding mix (None: nothing adapts)."""
        return None

    def verify(self, verdict: check.Verdict, corrupt: Optional[int]) -> None:
        raise NotImplementedError

    def side_layers(self) -> Dict[str, float]:
        """Per-layer numbers a traced run measures beside the op stream."""
        return {}

    def exact_counts(self) -> Dict[str, int]:
        """Counts that must repeat exactly for a fixed seed."""
        return {}

    def notes(self) -> List[str]:
        """Lines for the printed table that are not metrics."""
        return []

    def layers_after_verify(self) -> Dict[str, float]:
        """Per-layer numbers that only exist once :meth:`verify` has run."""
        return {}

    def close(self) -> None:
        """Release pools and patches (safe to call twice)."""
        if self.recorder is not None:
            self.recorder.unpatch()

    # -- set-up -----------------------------------------------------------
    def setup(self, traced: bool = False) -> None:
        staged = calib.Staged()
        self.build(staged)
        self.latencies = [0.0] * len(self.kinds)
        self.results = [None] * len(self.kinds)
        self.setup_seconds = staged.normalised_seconds
        recorder = self.recorder = spans.Recorder() if traced else None
        if recorder is not None:
            recorder.calibrate()
            recorder.patch_all(self.wrapped)
            recorder.patch_executor()
        self.calls = self.bind()
        if recorder is not None:
            self.calls = [recorder.wrap(call, "driver.op") for call in self.calls]

    # -- the closed loop ------------------------------------------------
    def run_slice(self, lo: int, hi: int) -> None:
        kinds, args, calls = self.kinds, self.args, self.calls
        latencies, results = self.latencies, self.results
        clock = time.perf_counter
        for i in range(lo, hi):
            call = calls[kinds[i]]
            arg = args[i]
            started = clock()
            result = call(arg)
            latencies[i] = clock() - started
            results[i] = result

    def measure(self) -> Dict[str, calib.Phase]:
        gc.collect()
        gc.freeze()
        poll = self.recorder is not None

        def after_slice(index: int, done: int) -> None:
            if poll:
                self.polls.append((done, self.census()))

        cpu0, wall0 = time.process_time(), time.perf_counter()
        phase = calib.measure_phase(0, len(self.kinds), self.slices, self.run_slice, after_slice)
        self.cpu_frac = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        self.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"main": phase}

    # -- results ----------------------------------------------------------
    def end_to_end(self, phases: Dict[str, calib.Phase]) -> Dict[str, float]:
        phase = phases["main"]
        size, keys = self.size_and_keys()
        p50, samples = phase.quantile_ms(self.latencies, self.kinds, GET, 0.50)
        self.get_samples = samples
        return {
            "ops_per_s": phase.ops / phase.normalised_seconds,
            "get_p50_ms": p50,
            "bytes_per_key": size / keys,
            "rss_peak_mb": self.rss_kib / 1024.0,
        }

    def driver_metrics(self, phases: Dict[str, calib.Phase]) -> Dict[str, float]:
        phase = phases["main"]
        quantile = phase.quantile_ms
        return {
            "driver.calib_ms": phase.quantum_mean * 1e3,
            "driver.cpu_frac": self.cpu_frac,
            "driver.put_p50_ms": quantile(self.latencies, self.kinds, PUT, 0.50)[0],
            "driver.scan_p50_ms": quantile(self.latencies, self.kinds, SCAN, 0.50)[0],
            "driver.get_p99_ms": quantile(self.latencies, self.kinds, GET, 0.99)[0],
            "driver.raw_ops_per_s": phase.ops / phase.raw_seconds,
            "driver.calib_unstable_segments": float(phase.unstable_slices),
        }

    def layers(self, phases: Dict[str, calib.Phase]) -> Dict[str, float]:
        """Per-layer metrics of a traced pass (busy self time per completed op)."""
        assert self.recorder is not None
        phase = phases["main"]
        recorded = self.recorder.spans()
        totals = spans.aggregate(
            recorded,
            since=self._measured_since(recorded, phase),
            inner_overhead=self.recorder.inner_overhead,
            outer_overhead=self.recorder.outer_overhead,
        )
        ops = phase.ops
        found = {
            metric: totals[layer].busy / ops * 1e6 if layer in totals else 0.0
            for metric, layer in self.busy_metrics.items()
        }
        busy = sum(total.busy for total in totals.values())
        root = totals["driver.op"]
        found["driver.harness_self_us"] = root.busy / ops * 1e6
        found["trace.overhead_us"] = (
            totals.get(spans.OVERHEAD, spans.LayerTotal()).busy / ops * 1e6
        )
        # Time the caller spent in its ops that no thread's CPU accounts for.
        found["driver.unattributed_frac"] = max(0.0, 1.0 - busy / root.wall)
        self._totals, self._recorded = totals, recorded
        found["core.manager.settle_ops"] = self.settle_ops()
        found.update(self.side_layers())
        return found

    @staticmethod
    def _measured_since(recorded: Dict[spans.SpanId, spans.Span], phase: calib.Phase) -> float:
        """Start of the first measured op's root span (warm-up is excluded)."""
        roots = sorted(span.start for span in recorded.values() if span.name == "driver.op")
        return roots[phase.bounds[0][0]]

    def settle_ops(self) -> float:
        """Ops after the half-way shift until the census stops changing."""
        shift = len(self.kinds) // 2
        after = [(done, census) for done, census in self.polls if done > shift]
        if not after or after[-1][1] is None:
            return 0.0
        settled = after[-1][0]
        for done, census in reversed(after):
            if census != after[-1][1]:
                break
            settled = done
        return float(settled - shift)


def scaled_manager_config(
    encoding_order: Sequence[object], budget: MemoryBudget, max_sample_size: int
) -> ManagerConfig:
    """The repo's laptop-scale adaptation knobs (as its fig. 12 / fig. 20
    experiments use): the paper's defaults — skip 50..500, epsilon = delta
    = 5 % — would not finish one sampling phase in a run this short."""
    return ManagerConfig(
        encoding_order=encoding_order,
        budget=budget,
        initial_skip_length=5,
        skip_min=5,
        skip_max=100,
        max_sample_size=max_sample_size,
        epsilon=0.10,
        delta=0.10,
    )


def _manager_counts(manager: Any) -> Dict[str, int]:
    counters = manager.counters
    return {
        "phases": counters.adaptation_phases,
        "migrations": counters.expansions + counters.compactions,
    }


def _manager_metrics(manager: Any, adapt_seconds: float) -> Dict[str, float]:
    counts = _manager_counts(manager)
    return {
        "core.manager.adapt_s": adapt_seconds,
        "core.manager.phases": float(counts["phases"]),
        "core.manager.migrations": float(counts["migrations"]),
    }


class BtreeAdapt(InProcess):
    """``AdaptiveBPlusTree`` under a relative budget, hot set moving half-way."""

    name = "btree_adapt"
    #: Binding: cold leaves cost ~91 bits per key, a run free to expand every
    #: hot leaf ends near 133, and at 112 a 10 s run still ended under the
    #: budget on nine seeds of ten (13.5-13.7 bytes per key).  At 104 every
    #: run ends on it, so the manager has to compact and evict to expand —
    #: the budget-pressure path the paper describes.
    BUDGET_BITS_PER_KEY = 104.0

    wrapped = {
        (AdaptiveBPlusTree, "lookup"): ("bptree.hybrid.lookup", None),
        (AdaptiveBPlusTree, "insert"): ("bptree.hybrid.insert", None),
        (AdaptiveBPlusTree, "scan"): ("bptree.hybrid.scan", None),
        (AdaptationManager, "run_adaptation"): ("core.manager.adapt", None),
    }
    busy_metrics = {
        "bptree.hybrid.lookup_us": "bptree.hybrid.lookup",
        "bptree.hybrid.insert_us": "bptree.hybrid.insert",
        "bptree.hybrid.scan_us": "bptree.hybrid.scan",
        "core.manager.adapt_us": "core.manager.adapt",
    }

    def exact_counts(self) -> Dict[str, int]:
        return _manager_counts(self.tree.manager)

    def build(self, staged: calib.Staged) -> None:
        keys, self.pairs = staged.stage(lambda: opstream.int_data(self.seed, self.num_keys))
        config = scaled_manager_config(
            BTREE_ENCODING_ORDER, MemoryBudget.relative(self.BUDGET_BITS_PER_KEY), 1_500
        )
        self.tree = staged.stage(
            lambda: AdaptiveBPlusTree.bulk_load_adaptive(self.pairs, manager_config=config)
        )
        self.stream = staged.stage(lambda: opstream.btree_stream(self.seed, keys, self.ops))
        self.kinds, self.args = self.stream.kinds, self.stream.keys

    def bind(self) -> List[Callable[[Any], Any]]:
        tree, value_of, count = self.tree, opstream.value_of, opstream.INDEX_SCAN_COUNT
        return [
            tree.lookup,
            lambda key: tree.insert(key, value_of(key)),
            lambda key: tree.scan(key, count),
        ]

    def size_and_keys(self) -> Tuple[int, int]:
        return self.tree.size_bytes(), self.tree.num_keys

    def census(self) -> Any:
        return sorted((str(k), v) for k, v in self.tree.encoding_counts().items())

    def side_layers(self) -> Dict[str, float]:
        counts = self.tree.encoding_counts()
        adapt = self._totals.get("core.manager.adapt", spans.LayerTotal())
        found = _manager_metrics(self.tree.manager, adapt.wall)
        found["bptree.hybrid.expanded_leaf_frac"] = counts.get(
            LeafEncoding.GAPPED, 0
        ) / max(1, sum(counts.values()))
        return found

    def verify(self, verdict: check.Verdict, corrupt: Optional[int]) -> None:
        inserted = [k for k, kind in zip(self.stream.keys, self.stream.kinds) if kind == PUT]
        model = check.Model(self.pairs, inserted)
        check.check_index(
            self.stream, self.results, model, verdict, corrupt, opstream.value_of
        )
        verdict.run_verify("AdaptiveBPlusTree", self.tree.verify)


class TrieAdapt(InProcess):
    """``HybridTrie`` over e-mail keys, hot set moving half-way."""

    name = "trie_adapt"

    wrapped = {
        (HybridTrie, "lookup"): ("hybridtrie.lookup", None),
        (HybridTrie, "scan"): ("hybridtrie.scan", None),
        (AdaptationManager, "run_adaptation"): ("core.manager.adapt", None),
    }
    busy_metrics = {
        "hybridtrie.lookup_us": "hybridtrie.lookup",
        "hybridtrie.scan_us": "hybridtrie.scan",
        "core.manager.adapt_us": "core.manager.adapt",
    }

    def exact_counts(self) -> Dict[str, int]:
        return _manager_counts(self.trie.manager)

    def build(self, staged: calib.Staged) -> None:
        self.pairs = staged.stage(lambda: opstream.email_pairs(self.seed, self.num_keys))
        config = scaled_manager_config(TRIE_ENCODING_ORDER, MemoryBudget.unbounded(), 1_000)
        self.trie = staged.stage(lambda: HybridTrie(self.pairs, manager_config=config))
        self.stream = staged.stage(lambda: opstream.trie_stream(self.seed, self.pairs, self.ops))
        self.kinds, self.args = self.stream.kinds, self.stream.keys

    def bind(self) -> List[Callable[[Any], Any]]:
        trie, count = self.trie, opstream.INDEX_SCAN_COUNT
        return [trie.lookup, trie.lookup, lambda key: trie.scan(key, count)]

    def size_and_keys(self) -> Tuple[int, int]:
        return self.trie.size_bytes(), self.trie.num_keys

    def census(self) -> Any:
        return self.trie.expanded_branch_count()

    def side_layers(self) -> Dict[str, float]:
        adapt = self._totals.get("core.manager.adapt", spans.LayerTotal())
        found = _manager_metrics(self.trie.manager, adapt.wall)
        found["hybridtrie.expanded_branches"] = float(self.trie.expanded_branch_count())
        keys = [key for key, kind in zip(self.args, self.kinds) if kind == GET][:SIDE_CALLS]
        fst = self.trie.fst
        art = ART.from_sorted(self.pairs)
        found["fst.lookup_us"] = _per_call_us(fst.lookup, keys)
        found["art.lookup_us"] = _per_call_us(art.lookup, keys)
        return found

    def verify(self, verdict: check.Verdict, corrupt: Optional[int]) -> None:
        check.check_index(self.stream, self.results, check.Model(self.pairs), verdict, corrupt)
        verdict.run_verify("HybridTrie", self.trie.verify)


#: The service layers below the wire: what ``router_batch`` wraps in-process
#: and ``server_main.py`` wraps in the server child.
SERVICE_WRAPPED = {
    (ShardRouter, "get_many"): ("service.router.get_many", 1),
    (ShardRouter, "put_many"): ("service.router.put_many", 1),
    (ShardRouter, "scan"): ("service.router.scan", None),
    (Shard, "get_many"): ("service.shard.get_many", 1),
    (Shard, "put_many"): ("service.shard.put_many", 1),
    (Shard, "scan"): ("service.shard.scan", None),
    (OlcBPlusTree, "lookup"): ("bptree.olc.lookup", None),
    (OlcBPlusTree, "insert"): ("bptree.olc.insert", None),
    (OlcBPlusTree, "insert_many"): ("bptree.olc.insert", 1),
    (OlcBPlusTree, "scan"): ("bptree.olc.scan", None),
}
SERVICE_BUSY_METRICS = {
    "service.router.get_many_self_us": "service.router.get_many",
    "service.router.put_many_self_us": "service.router.put_many",
    "service.router.scan_self_us": "service.router.scan",
    "service.shard.get_many_self_us": "service.shard.get_many",
    "service.shard.put_many_self_us": "service.shard.put_many",
    "service.shard.scan_self_us": "service.shard.scan",
    "bptree.olc.lookup_many_us": "bptree.olc.lookup",
    "bptree.olc.insert_us": "bptree.olc.insert",
    "bptree.olc.scan_us": "bptree.olc.scan",
}


class RouterBatch(InProcess):
    """``ShardRouter`` over 4 OLC hash shards, batched calls from one thread."""

    name = "router_batch"
    SHARDS = 4

    wrapped = SERVICE_WRAPPED
    busy_metrics = SERVICE_BUSY_METRICS

    def build(self, staged: calib.Staged) -> None:
        keys, self.pairs = staged.stage(lambda: opstream.int_data(self.seed, self.num_keys))
        self.router = staged.stage(
            lambda: ShardRouter.build(self.pairs, family="olc", num_shards=self.SHARDS)
        )
        self.stream = staged.stage(lambda: opstream.router_stream(self.seed, keys, self.ops))
        self.kinds, self.args = self.stream.kinds, self.stream.payloads

    def bind(self) -> List[Callable[[Any], Any]]:
        router, count = self.router, opstream.ROUTER_SCAN_COUNT
        return [router.get_many, router.put_many, lambda start: router.scan(start, count)]

    def size_and_keys(self) -> Tuple[int, int]:
        shards = self.router.table.shards
        return sum(shard.size_bytes() for shard in shards), len(self.router)

    def side_layers(self) -> Dict[str, float]:
        """Fan-out, and router ``get_many(8)`` against the same keys sent
        straight to each shard — the dispatch overhead as a ratio."""
        calls, caused = spans.child_counts(self._recorded, "service.router.get_many")
        self.recorder.unpatch()  # the ratio below is of untraced calls
        router = self.router
        batches = [arg for arg, kind in zip(self.args, self.kinds) if kind == GET][:SIDE_CALLS]
        clock = time.perf_counter
        started = clock()
        for batch in batches:
            router.get_many(batch)
        routed = clock() - started
        groups = []
        for batch in batches:
            by_shard: Dict[int, Tuple[Any, List[int]]] = {}
            for key in batch:
                shard = router.shard_for(key)
                by_shard.setdefault(id(shard), (shard, []))[1].append(key)
            groups.append(list(by_shard.values()))
        started = clock()
        for group in groups:
            for shard, keys in group:
                shard.get_many(keys)
        direct = clock() - started
        return {
            "service.router.fanout_mean": caused / max(1, calls),
            "service.router.overhead_ratio": routed / direct,
        }

    def verify(self, verdict: check.Verdict, corrupt: Optional[int]) -> None:
        later = [
            key
            for payload, kind in zip(self.stream.payloads, self.stream.kinds)
            if kind == PUT
            for key, _ in payload
        ]
        model = check.Model(self.pairs, later)
        check.check_router(self.stream, self.results, model, verdict, corrupt)
        verdict.run_verify("ShardRouter", self.router.verify)

    def close(self) -> None:
        super().close()
        self.router.close()


def _per_call_us(call: Callable[[Any], Any], args: Sequence[Any]) -> float:
    clock = time.perf_counter
    samples = []
    for arg in args:
        started = clock()
        call(arg)
        samples.append(clock() - started)
    return statistics.median(samples) * 1e6 if samples else 0.0


WORKLOADS = {cls.name: cls for cls in (RouterBatch, BtreeAdapt, TrieAdapt)}
