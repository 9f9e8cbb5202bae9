"""Batched operations must equal per-key loops on every index family.

Every ``*_many`` entry point promises the same return values as the
equivalent per-key loop and the same final index contents.  Only two
families keep a batch body of their own: the OLC tree's ``insert_many``
(its one insert body) and the Dual-Stage index's ``insert_many`` (one
Bloom ``add_many``, one merge check per batch); everything else is the
index contract's per-key default, which the service's shard writes and
the end-to-end span table call.  Each test builds twin indexes from the
same seed data, drives one through the batched API and the other
through per-key calls, and compares the returned values, the resulting
contents, the structural counters and — on the adaptive tree — the
sampler state; the families with a self-verifier additionally prove
their invariants afterwards.

The last class pins the design: each family has one copy of each access
path, so the adaptive B+-tree defines no access path of its own, no
family carries a traced twin, a batched scan or a sorted batch read,
the adaptation manager has one sample gate, and it keeps the one tally
of each adaptation fact.
"""

import importlib
import inspect
import pkgutil
import random

import pytest

import repro
from repro.art.tree import terminated
from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.olc import OlcBPlusTree, _lock_of
from repro.bptree.tree import BPlusTree
from repro.core.manager import AdaptationManager, ManagerConfig
from repro.dualstage.index import DualStageIndex
from repro.fst.trie import FST
from repro.obs.introspect import IndexFamily


def int_workload(seed, universe=50_000, loaded=4000, probes=3000):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(universe), loaded))
    pairs = [(key, key * 3 + 1) for key in keys]
    probe_keys = [rng.randrange(universe) for _ in range(probes)]
    return pairs, probe_keys


def byte_workload(seed, loaded=1500, probes=1500):
    rng = random.Random(seed)
    words = {
        bytes(rng.randrange(97, 123) for _ in range(rng.randrange(3, 12)))
        for _ in range(loaded)
    }
    keys = sorted(terminated(word) for word in words)
    pairs = [(key, index * 7 + 1) for index, key in enumerate(keys)]
    probe_keys = [
        rng.choice(keys)
        if rng.random() < 0.6
        else terminated(bytes(rng.randrange(97, 123) for _ in range(5)))
        for _ in range(probes)
    ]
    return pairs, probe_keys


def counters_saving_descents(index):
    """Structural counters minus ``inner_visit`` — the one event a sorted
    batch body may save against the per-key loop."""
    counts = index.counters.snapshot()
    counts.pop("inner_visit", None)
    return counts


def sampler_state(tree):
    manager = tree.manager
    return (
        manager.counters.accesses,
        manager.counters.sampled,
        manager._countdown,
        manager.tracked_units,
    )


class TestBPlusTreeParity:
    @pytest.mark.parametrize(
        "encoding", [LeafEncoding.GAPPED, LeafEncoding.PACKED, LeafEncoding.SUCCINCT]
    )
    def test_lookup_many_sorted_and_unsorted(self, encoding):
        pairs, probe_keys = int_workload(1)
        tree = BPlusTree.bulk_load(pairs, encoding)
        looped = BPlusTree.bulk_load(pairs, encoding)
        for keys in (sorted(probe_keys), probe_keys):
            assert tree.lookup_many(keys) == [looped.lookup(key) for key in keys]
        assert counters_saving_descents(tree) == counters_saving_descents(looped)

    def test_insert_many_matches_loop(self):
        pairs, _ = int_workload(2)
        rng = random.Random(22)
        inserts = [(rng.randrange(60_000), rng.randrange(1000)) for _ in range(2000)]
        batched = BPlusTree.bulk_load(pairs, LeafEncoding.GAPPED)
        looped = BPlusTree.bulk_load(pairs, LeafEncoding.GAPPED)
        for chunk_keys in (sorted(inserts), inserts):  # sorted + fallback paths
            assert batched.insert_many(chunk_keys) == [
                looped.insert(key, value) for key, value in chunk_keys
            ]
        assert list(batched.items()) == list(looped.items())
        assert counters_saving_descents(batched) == counters_saving_descents(looped)
        batched.verify()

    def test_duplicate_keys_in_one_batch(self):
        tree = BPlusTree(LeafEncoding.GAPPED)
        results = tree.insert_many([(5, 1), (5, 2), (7, 3), (7, 4)])
        assert results == [True, False, True, False]
        assert tree.lookup_many([5, 7]) == [2, 4]


class TestAdaptiveBPlusTreeParity:
    def test_mixed_batches_match_loop_and_verify(self):
        pairs, probe_keys = int_workload(4)
        batched = AdaptiveBPlusTree.bulk_load_adaptive(pairs)
        looped = AdaptiveBPlusTree.bulk_load_adaptive(pairs)
        rng = random.Random(44)
        inserts = sorted(
            (rng.randrange(60_000), rng.randrange(1000)) for _ in range(1500)
        )
        sorted_probes = sorted(probe_keys)
        assert batched.lookup_many(sorted_probes) == [
            looped.lookup(key) for key in sorted_probes
        ]
        assert batched.insert_many(inserts) == [
            looped.insert(key, value) for key, value in inserts
        ]
        assert list(batched.items()) == list(looped.items())
        assert counters_saving_descents(batched) == counters_saving_descents(looped)
        assert sampler_state(batched) == sampler_state(looped)
        batched.verify()
        looped.verify()

    def test_sampling_state_identical_to_per_key(self):
        pairs, probe_keys = int_workload(5)
        batched = AdaptiveBPlusTree.bulk_load_adaptive(pairs)
        looped = AdaptiveBPlusTree.bulk_load_adaptive(pairs)
        sorted_probes = sorted(probe_keys)
        batched.lookup_many(sorted_probes)
        for key in sorted_probes:
            looped.lookup(key)
        assert sampler_state(batched) == sampler_state(looped)
        assert counters_saving_descents(batched) == counters_saving_descents(looped)


class TestOlcBPlusTreeParity:
    """The OLC tree batches over its own validated single operations."""

    def test_lookup_many_matches_loop(self):
        pairs, probe_keys = int_workload(16)
        batched = OlcBPlusTree.bulk_load(pairs)
        looped = OlcBPlusTree.bulk_load(pairs)
        for keys in (sorted(probe_keys), probe_keys):
            assert batched.lookup_many(keys) == [looped.lookup(key) for key in keys]
        assert batched.counters.snapshot() == looped.counters.snapshot()

    def test_insert_many_matches_loop_through_splits(self):
        pairs, _ = int_workload(17, loaded=600)
        batched = OlcBPlusTree.bulk_load(pairs, leaf_capacity=8)
        looped = OlcBPlusTree.bulk_load(pairs, leaf_capacity=8)
        rng = random.Random(170)
        inserts = [(rng.randrange(60_000), rng.randrange(1000)) for _ in range(900)]
        for chunk in (sorted(inserts[:450]), inserts[450:]):
            assert batched.insert_many(chunk) == [
                looped.insert(key, value) for key, value in chunk
            ]
        assert batched.counters.get("leaf_split") > 0
        assert list(batched.items()) == list(looped.items())
        assert batched.counters.snapshot() == looped.counters.snapshot()
        assert [_lock_of(leaf).version for leaf in batched.leaves()] == [
            _lock_of(leaf).version for leaf in looped.leaves()
        ]
        batched.verify()


class TestFSTParity:
    def test_lookup_many_sorted_and_unsorted(self):
        pairs, probe_keys = byte_workload(9)
        fst = FST(pairs)
        for keys in (sorted(probe_keys), probe_keys):
            assert fst.lookup_many(keys) == [fst.lookup(key) for key in keys]


class TestDualStageParity:
    @pytest.mark.parametrize(
        "encoding", [LeafEncoding.PACKED, LeafEncoding.SUCCINCT]
    )
    def test_mixed_batches_match_loop_and_verify(self, encoding):
        pairs, probe_keys = int_workload(14, loaded=3000, probes=2000)
        batched = DualStageIndex.bulk_load(pairs, encoding)
        looped = DualStageIndex.bulk_load(pairs, encoding)
        rng = random.Random(140)
        inserts = sorted(
            (rng.randrange(60_000), rng.randrange(1000)) for _ in range(400)
        )
        deletions = [key for key, _ in pairs[::37]]
        batched.insert_many(inserts)
        for key, value in inserts:
            looped.insert(key, value)
        for key in deletions:
            assert batched.delete(key) == looped.delete(key)
        # insert_many merges once per batch, so only the probes' own
        # events are comparable between the twins.
        for keys in (sorted(probe_keys), probe_keys):
            before_batched = batched.counters.snapshot()
            before_looped = looped.counters.snapshot()
            assert batched.lookup_many(keys) == [looped.lookup(key) for key in keys]
            probe_events = batched.counters.diff(before_batched)
            loop_events = looped.counters.diff(before_looped)
            for events in (probe_events, loop_events):
                events.pop("inner_visit", None)
            assert probe_events == loop_events
        batched.verify()
        looped.verify()

    def test_lookup_many_hits_tombstones_and_static(self):
        pairs, _ = int_workload(15, loaded=1000, probes=0)
        index = DualStageIndex.bulk_load(pairs, LeafEncoding.SUCCINCT)
        present = [key for key, _ in pairs[:50]]
        index.insert_many([(key, 999) for key in present[:10]])
        for key in present[10:20]:
            index.delete(key)
        probe = present[:25] + [10**9 + offset for offset in range(5)]
        assert index.lookup_many(probe) == [index.lookup(key) for key in probe]


class TestOneAccessPathPerFamily:
    """The shape this suite relies on: variations layer over one copy."""

    def test_adaptive_tree_defines_no_access_path(self):
        own = set(vars(AdaptiveBPlusTree))
        assert not own & {
            "lookup", "insert", "update", "delete", "scan", "lookup_many", "insert_many",
        }
        assert {"_leaf_accessed", "_before_leaf_insert"} <= own

    def test_no_traced_twin_or_batched_scan_anywhere(self):
        offenders = []
        for package in ("bptree", "art", "fst", "hybridtrie", "dualstage"):
            root = importlib.import_module(f"{repro.__name__}.{package}")
            for info in pkgutil.iter_modules(root.__path__, root.__name__ + "."):
                module = importlib.import_module(info.name)
                for name, cls in inspect.getmembers(module, inspect.isclass):
                    if cls.__module__ != module.__name__:
                        continue
                    for banned in ("_traced_lookup", "scan_many"):
                        if banned in vars(cls):
                            offenders.append(f"{info.name}.{name}.{banned}")
        assert offenders == []

    def test_olc_tree_owns_its_batched_paths(self):
        """``insert_many`` is OLC's one insert body; reads inherit the
        contract's per-key ``lookup_many``."""
        own = set(vars(OlcBPlusTree))
        assert "insert_many" in own
        assert "lookup_many" not in own
        assert OlcBPlusTree.lookup_many is IndexFamily.lookup_many

    def test_no_sorted_batch_read_anywhere(self):
        offenders = []
        for package in ("bptree", "fst", "dualstage", "succinct"):
            root = importlib.import_module(f"{repro.__name__}.{package}")
            for info in pkgutil.iter_modules(root.__path__, root.__name__ + "."):
                module = importlib.import_module(info.name)
                for name, cls in inspect.getmembers(module, inspect.isclass):
                    if cls.__module__ != module.__name__:
                        continue
                    for banned in ("lookup_run", "_descend_bounded", "lookup_many"):
                        if banned in vars(cls):
                            offenders.append(f"{info.name}.{name}.{banned}")
        assert offenders == []

    def test_manager_has_one_sample_gate(self):
        assert "consume" not in vars(AdaptationManager)

    def test_each_adaptation_fact_is_counted_once_by_the_manager(self):
        """Eager expansions are the manager's counts, not ``OpCounters``
        events, and ``stats()`` reads the eager and migration totals off
        ``manager.counters``."""
        pairs, probe_keys = int_workload(5)
        config = ManagerConfig(
            encoding_order=BTREE_ENCODING_ORDER,
            initial_skip_length=0,
            skip_min=0,
            skip_max=4,
            initial_sample_size=300,
            max_sample_size=300,
        )
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=32, manager_config=config
        )
        for step, key in enumerate(probe_keys):
            if step % 3:
                tree.lookup(key)
            else:
                tree.insert(key, step)
        counters = tree.manager.counters
        assert counters.eager_expansions > 0
        assert counters.expansions + counters.compactions > 0
        assert not [
            event for event in tree.counters.snapshot() if event.startswith("eager_expansion")
        ]
        stats = tree.stats()
        assert stats["eager_expansions"] == counters.eager_expansions
        assert stats["eager_expansions_refused"] == counters.eager_expansions_refused
        assert stats["adaptation"]["migration_history"] == {
            "expansions": counters.expansions,
            "compactions": counters.compactions,
            "migrations": counters.expansions + counters.compactions,
            "failures": counters.migration_failures,
            "quarantined": counters.quarantined_units,
            "recent_events": stats["adaptation"]["migration_history"]["recent_events"],
        }
