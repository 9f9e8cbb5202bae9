"""Hot-path instrumentation: every publisher reaches the installed telemetry.

These are end-to-end checks of the call sites sprinkled through the
index families, the adaptation manager, the Bloom filter, the sampler,
and the fault injector — the wiring :mod:`repro.obs` exists for.
"""

import pytest

from repro.art.tree import ART, terminated
from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.olc import OlcBPlusTree
from repro.bptree.tree import BPlusTree
from repro.core.bloom import BloomFilter
from repro.core.sampling import SkipSampler
from repro.dualstage.index import DualStageIndex, StaticEncoding
from repro.faults import FaultInjector, InjectedFault, fault_point
from repro.fst.trie import FST
from repro.hybridtrie.tree import HybridTrie
from repro.obs import Telemetry

INT_PAIRS = [(key, key * 2) for key in range(500)]
BYTE_PAIRS = [
    (terminated(f"key{index:04d}".encode()), index) for index in range(200)
]


def _sampler_state(index):
    manager = index.manager
    return (
        manager.counters.accesses,
        manager.counters.sampled,
        manager.counters.adaptation_phases,
        manager._sampler._countdown,
        manager.tracked_units,
    )


class TestTracedLookups:
    """Every family emits lookup -> descent/leaf_probe spans when traced."""

    @pytest.mark.parametrize(
        "build, key, probe_prefix",
        [
            (lambda: BPlusTree.bulk_load(INT_PAIRS, LeafEncoding.SUCCINCT),
             42, "leaf_probe:succinct"),
            (lambda: AdaptiveBPlusTree.bulk_load_adaptive(INT_PAIRS),
             42, "leaf_probe:"),
            (lambda: OlcBPlusTree.bulk_load(INT_PAIRS),
             42, "leaf_probe:gapped"),
            (lambda: DualStageIndex.bulk_load(INT_PAIRS, StaticEncoding.SUCCINCT),
             42, "leaf_probe:static"),
            (lambda: ART.from_sorted(BYTE_PAIRS),
             BYTE_PAIRS[0][0], "leaf_probe:"),
            (lambda: FST(BYTE_PAIRS),
             BYTE_PAIRS[0][0], "leaf_probe:"),
            (lambda: HybridTrie(BYTE_PAIRS),
             BYTE_PAIRS[0][0], "leaf_probe:"),
        ],
        ids=["bptree", "bptree_adaptive", "olc", "dualstage", "art", "fst", "hybridtrie"],
    )
    def test_lookup_span_tree(self, build, key, probe_prefix):
        index, untraced = build(), build()
        expected = untraced.lookup(key)  # untraced twin for comparison
        with Telemetry.with_memory_trace(op_sample_every=1) as telemetry:
            assert index.lookup(key) == expected  # tracing must not change results
            sink = telemetry.tracer.sink
            lookups = sink.by_name("lookup")
            assert len(lookups) == 1
            children = [
                record for record in sink.records
                if record["parent_id"] == lookups[0]["span_id"]
            ]
            assert [child["name"] for child in children][0] == "descent"
            assert any(child["name"].startswith(probe_prefix) for child in children)
        # One access path: tracing moves no counter and no sampler state.
        assert index.counters.snapshot() == untraced.counters.snapshot()
        if hasattr(index, "manager"):
            assert _sampler_state(index) == _sampler_state(untraced)

    @pytest.mark.parametrize(
        "build, keys",
        [
            (lambda: AdaptiveBPlusTree.bulk_load_adaptive(INT_PAIRS),
             [key for key, _ in INT_PAIRS] + [10_001]),
            (lambda: HybridTrie(BYTE_PAIRS),
             [key for key, _ in BYTE_PAIRS] + [b"missing\x00"]),
        ],
        ids=["bptree_adaptive", "hybridtrie"],
    )
    def test_traced_run_samples_like_an_untraced_one(self, build, keys):
        """Long enough to cross sample points and an adaptation phase."""
        traced, untraced = build(), build()
        expected = [untraced.lookup(key) for key in keys * 4]
        with Telemetry.with_memory_trace(op_sample_every=3):
            assert [traced.lookup(key) for key in keys * 4] == expected
        assert traced.manager.counters.sampled > 0
        assert traced.counters.snapshot() == untraced.counters.snapshot()
        assert _sampler_state(traced) == _sampler_state(untraced)

    def test_sampling_gate_skips_op_spans(self):
        tree = BPlusTree.bulk_load(INT_PAIRS, LeafEncoding.GAPPED)
        with Telemetry.with_memory_trace(op_sample_every=4) as telemetry:
            for key in range(0, 16):
                tree.lookup(key)
            assert len(telemetry.tracer.sink.by_name("lookup")) == 4

    def test_disabled_tracing_emits_nothing(self):
        tree = BPlusTree.bulk_load(INT_PAIRS, LeafEncoding.GAPPED)
        with Telemetry() as telemetry:  # registry only, no tracer
            tree.lookup(42)
        assert telemetry.snapshot()["metrics"]["counters"] == {}


class TestManagerInstrumentation:
    def test_adaptation_phase_publishes_spans_and_metrics(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            [(key, key) for key in range(4_000)]
        )
        for key in range(0, 4_000, 3):
            tree.lookup(key)
        with Telemetry.with_memory_trace() as telemetry:
            tree.manager.run_adaptation()
            sink = telemetry.tracer.sink
            phases = sink.by_name("adaptation_phase")
            assert len(phases) == 1
            # The phase span carries the full AdaptationEvent.as_dict().
            attributes = phases[0]["attributes"]
            assert {"epoch", "expansions", "compactions", "index_bytes"} <= set(attributes)
            assert sink.by_name("classify")
            counters = telemetry.registry.snapshot()["counters"]
            assert counters["manager.phases"] == 1
            gauges = telemetry.registry.snapshot()["gauges"]
            assert gauges["index.bytes"] > 0


class TestCorePublishers:
    def test_bloom_reset_records_histograms(self):
        bloom = BloomFilter(capacity=256)
        with Telemetry() as telemetry:
            for item in range(64):
                bloom.add(item)
            bloom.reset()
            histograms = telemetry.registry.snapshot()["histograms"]
            assert histograms["bloom.insertions_per_phase"]["count"] == 1
            assert 0.0 < histograms["bloom.saturation"]["mean"] <= 1.0

    def test_empty_bloom_reset_records_nothing(self):
        bloom = BloomFilter(capacity=16)
        with Telemetry() as telemetry:
            bloom.reset()
            assert telemetry.registry.snapshot()["histograms"] == {}

    def test_sampler_publishes_skip_length(self):
        sampler = SkipSampler(skip_length=10)
        with Telemetry() as telemetry:
            sampler.set_skip_length(25)
            snapshot = telemetry.registry.snapshot()
            assert snapshot["gauges"]["sampler.skip_length"] == 25
            assert snapshot["counters"]["sampler.skip_updates"] == 1

    def test_fault_injector_counts_raises(self):
        with Telemetry() as telemetry:
            with FaultInjector(site="obs.test", fail_at=1), pytest.raises(InjectedFault):
                fault_point("obs.test")
            counters = telemetry.registry.snapshot()["counters"]
            assert counters["faults.injected"] == 1
            assert counters["faults.injected:obs.test"] == 1


class TestDualStageMerge:
    def test_merge_emits_span_and_metrics(self):
        index = DualStageIndex.bulk_load(INT_PAIRS, StaticEncoding.SUCCINCT)
        with Telemetry.with_memory_trace() as telemetry:
            index.insert(10_001, 1)
            index.merge()
            merges = telemetry.tracer.sink.by_name("merge")
            assert len(merges) == 1
            assert merges[0]["attributes"]["outcome"] == "merged"
            snapshot = telemetry.registry.snapshot()
            assert snapshot["counters"]["dualstage.merges"] == 1
            assert snapshot["histograms"]["dualstage.merge_entries"]["count"] == 1
