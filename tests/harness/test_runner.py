"""Tests for the workload runner and adapters."""

import pytest

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.core.manager import ManagerConfig
from repro.fst.trie import FST
from repro.harness.runner import (
    ByteKeyIndexAdapter,
    IntKeyIndexAdapter,
    RunResult,
    cost_events,
    run_operations,
)
from repro.sim.costmodel import CostModel
from repro.workloads.spec import OpKind
from repro.workloads.stream import Operation


def make_tree(n=500):
    return BPlusTree.bulk_load([(key, key) for key in range(n)], LeafEncoding.GAPPED)


class TestIntKeyAdapter:
    def test_executes_all_kinds(self):
        tree = make_tree()
        adapter = IntKeyIndexAdapter(tree)
        adapter.execute(Operation(OpKind.READ, 5))
        adapter.execute(Operation(OpKind.SCAN, 5, scan_length=3))
        adapter.execute(Operation(OpKind.INSERT, 10_001, value=7))
        adapter.execute(Operation(OpKind.UPDATE, 5, value=50))
        assert tree.lookup(10_001) == 7
        assert tree.lookup(5) == 50

    def test_update_falls_back_to_insert(self):
        tree = make_tree()
        adapter = IntKeyIndexAdapter(tree)
        adapter.execute(Operation(OpKind.UPDATE, 99_999, value=1))
        assert tree.lookup(99_999) == 1

    def test_counter_snapshot_plain_tree(self):
        tree = make_tree()
        adapter = IntKeyIndexAdapter(tree)
        adapter.execute(Operation(OpKind.READ, 5))
        events = adapter.counter_snapshot()
        assert events.get("leaf_visit:gapped", 0) >= 1
        assert adapter.aux_bytes() == 0
        assert adapter.expansions() == 0
        assert adapter.skip_length() is None

    def test_counter_snapshot_adaptive_tree(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive([(key, key) for key in range(500)])
        adapter = IntKeyIndexAdapter(tree)
        for key in range(100):
            adapter.execute(Operation(OpKind.READ, key))
        events = adapter.counter_snapshot()
        assert "sample_track" in events or tree.manager.counters.map_updates == 0
        assert adapter.aux_bytes() >= 0
        assert adapter.skip_length() == tree.manager.skip_length


class TestCostEvents:
    @pytest.mark.parametrize("use_bloom_filter", [True, False])
    def test_adapter_prices_the_manager_bookkeeping(self, use_bloom_filter):
        config = ManagerConfig(
            encoding_order=BTREE_ENCODING_ORDER,
            initial_skip_length=0,
            skip_min=0,
            skip_max=4,
            initial_sample_size=96,
            max_sample_size=96,
            use_bloom_filter=use_bloom_filter,
        )
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            [(key, key) for key in range(2_000)], manager_config=config
        )
        adapter = IntKeyIndexAdapter(tree)
        for key in range(0, 400, 2):
            adapter.execute(Operation(OpKind.READ, key))
        managed = tree.manager.counters
        assert managed.adaptation_phases >= 1
        events = cost_events(tree)
        assert events == adapter.counter_snapshot()
        own = tree.counters.snapshot()
        assert events["heap_op"] - own.get("heap_op", 0) == managed.heap_operations > 0
        assert events["classify_item"] - own.get("classify_item", 0) == managed.classified_items
        assert events["sample_track"] - own.get("sample_track", 0) == managed.map_updates
        bloom_checks = events.get("bloom_check", 0) - own.get("bloom_check", 0)
        assert bloom_checks == (managed.sampled if use_bloom_filter else 0)
        assert managed.sampled > 0


class TestByteKeyAdapter:
    def test_rank_mapping(self):
        pairs = [(bytes([0, label]), label) for label in range(64)]
        fst = FST(pairs)
        adapter = ByteKeyIndexAdapter(fst, [key for key, _ in pairs])
        adapter.execute(Operation(OpKind.READ, 10))
        adapter.execute(Operation(OpKind.SCAN, 0, scan_length=5))
        assert adapter.counter_snapshot()

    def test_writes_rejected(self):
        pairs = [(bytes([0, label]), label) for label in range(8)]
        fst = FST(pairs)
        adapter = ByteKeyIndexAdapter(fst, [key for key, _ in pairs])
        with pytest.raises(ValueError):
            adapter.execute(Operation(OpKind.INSERT, 0, value=1))


class TestRunOperations:
    def test_interval_series(self):
        tree = make_tree()
        adapter = IntKeyIndexAdapter(tree)
        operations = [Operation(OpKind.READ, key % 500) for key in range(250)]
        result = run_operations(adapter, operations, interval_ops=100)
        assert len(result.intervals) == 3
        assert [stats.operations for stats in result.intervals] == [100, 100, 50]
        assert result.total_operations == 250
        assert result.modeled_ns_per_op > 0
        assert result.wall_ns_per_op > 0
        assert result.final_index_bytes == tree.size_bytes()

    def test_result_accumulates_across_phases(self):
        tree = make_tree()
        adapter = IntKeyIndexAdapter(tree)
        operations = [Operation(OpKind.READ, 1)] * 50
        result = RunResult()
        run_operations(adapter, operations, interval_ops=25, result=result)
        run_operations(adapter, operations, interval_ops=25, result=result)
        assert len(result.intervals) == 4
        assert [stats.interval for stats in result.intervals] == [0, 1, 2, 3]
        assert result.total_operations == 100

    def test_series_accessor(self):
        tree = make_tree()
        adapter = IntKeyIndexAdapter(tree)
        operations = [Operation(OpKind.READ, 1)] * 60
        result = run_operations(adapter, operations, interval_ops=20)
        series = result.series("modeled_ns_per_op")
        assert len(series) == 3
        assert all(value > 0 for value in series)

    def test_custom_cost_model(self):
        tree = make_tree()
        adapter = IntKeyIndexAdapter(tree)
        operations = [Operation(OpKind.READ, 1)] * 10
        free = CostModel(costs_ns={})
        result = run_operations(adapter, operations, cost_model=free)
        assert result.total_modeled_ns == 0.0

    def test_empty_operations(self):
        adapter = IntKeyIndexAdapter(make_tree())
        result = run_operations(adapter, [])
        assert result.total_operations == 0
        assert result.modeled_ns_per_op == 0.0
