"""A fault at every injection point of a leaf migration must be harmless.

The pattern: an observer injector first enumerates the injection points
one migration crosses; the tests then re-run the migration with a fault
armed at each point in turn and prove — via the invariant validator and
a full key-set diff against a dict oracle — that the tree is exactly as
it was before the attempt.
"""

import random

import pytest

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.migrate import migrate_leaf
from repro.bptree.tree import BPlusTree
from repro.core.invariants import violations_of
from repro.core import manager as manager_module
from repro.core.manager import ManagerConfig
from repro.faults import FaultInjector, InjectedFault

PAIRS = [(key, key * 11 + 5) for key in range(400)]


def eager_config():
    """Sampling aggressive enough that a phase (and its migrations) runs
    every few dozen operations."""
    return ManagerConfig(
        encoding_order=BTREE_ENCODING_ORDER,
        initial_skip_length=0,
        skip_min=0,
        skip_max=4,
        initial_sample_size=96,
        max_sample_size=96,
    )


def make_tree(encoding=LeafEncoding.SUCCINCT):
    return BPlusTree.bulk_load(PAIRS, encoding, leaf_capacity=32)


def enumerate_sites(target=LeafEncoding.GAPPED):
    """Observer mode: which injection points does one migration cross?"""
    tree = make_tree()
    leaf = next(iter(tree.leaves()))
    with FaultInjector() as observer:
        assert migrate_leaf(leaf, target)
    return observer.sites_seen()


MIGRATION_SITES = enumerate_sites()


def test_migration_crosses_the_expected_sites():
    assert MIGRATION_SITES == {
        "bptree.migrate.read": 1,
        "bptree.migrate.encode": 1,
        "bptree.migrate.swap": 1,
    }


class TestFaultAtEveryPoint:
    @pytest.mark.parametrize("fail_at", range(1, sum(MIGRATION_SITES.values()) + 1))
    @pytest.mark.parametrize(
        "target", [LeafEncoding.GAPPED, LeafEncoding.PACKED], ids=str
    )
    def test_faulted_migration_leaves_tree_intact(self, fail_at, target):
        tree = make_tree()
        leaf = next(iter(tree.leaves()))
        pairs_before = leaf.to_pairs()
        with FaultInjector(fail_at=fail_at) as injector, pytest.raises(InjectedFault):
            migrate_leaf(leaf, target)
        assert injector.failures_injected == 1
        assert leaf.encoding is LeafEncoding.SUCCINCT  # swap never happened
        assert leaf.to_pairs() == pairs_before
        assert violations_of(tree) == []
        assert list(tree.items()) == PAIRS

    @pytest.mark.parametrize("fail_at", range(1, sum(MIGRATION_SITES.values()) + 1))
    def test_migration_succeeds_after_the_fault_clears(self, fail_at):
        tree = make_tree()
        leaf = next(iter(tree.leaves()))
        with FaultInjector(fail_at=fail_at), pytest.raises(InjectedFault):
            migrate_leaf(leaf, LeafEncoding.GAPPED)
        before = leaf.size_bytes()
        assert migrate_leaf(leaf, LeafEncoding.GAPPED)  # no injector now
        tree.note_leaf_resized(leaf.size_bytes() - before)
        assert leaf.encoding is LeafEncoding.GAPPED
        assert violations_of(tree) == []
        assert list(tree.items()) == PAIRS


class TestAdaptiveTreeUnderFaults:
    def test_eager_expansion_fault_does_not_break_insert(self):
        tree = AdaptiveBPlusTree.bulk_load_adaptive(PAIRS, leaf_capacity=32)
        oracle = dict(PAIRS)
        with FaultInjector(site="bptree.migrate.*", rate=1.0):
            for key in range(1000, 1100):
                assert tree.insert(key, key)
                oracle[key] = key
        assert violations_of(tree) == []
        assert dict(tree.items()) == oracle
        failures = tree.manager.counters
        assert failures.eager_expansion_failures > 0
        # An eager failure is no migration failure: it never counts
        # toward disabling adaptation.
        assert failures.migration_failures == 0

    def test_byte_accounting_survives_faulted_migrations(self):
        tree = make_tree()
        for fail_at in (1, 2, 3):
            leaf = list(tree.leaves())[fail_at]
            with FaultInjector(fail_at=fail_at), pytest.raises(InjectedFault):
                migrate_leaf(leaf, LeafEncoding.GAPPED)
        # _leaf_bytes is checked against a recount inside violations_of.
        assert violations_of(tree) == []

    def run_mixed(self, tree, oracle, hot, batches, rng, until):
        """Hot lookups, appends and deletes under faults: the tree must
        absorb every fault (nothing raises to the caller)."""
        next_key = max(oracle) + 1
        for _ in range(batches):
            for _ in range(200):
                tree.lookup(rng.choice(hot))
            for _ in range(100):
                assert tree.insert(next_key, next_key)
                oracle[next_key] = next_key
                next_key += 2
            for _ in range(20):
                victim = next_key - 2 * rng.randrange(1, 40)
                if tree.delete(victim):
                    del oracle[victim]
            if until():
                return

    def test_failing_swaps_quarantine_then_disable_adaptation(self, monkeypatch):
        """Every swap fails on a small hot set: its leaves quarantine
        before the total-failure count shuts adaptation off."""
        monkeypatch.setattr(manager_module, "DISABLE_AFTER_FAILURES", 40)
        pairs = [(key, key * 7 + 1) for key in range(0, 4000, 2)]
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=64, manager_config=eager_config()
        )
        oracle, rng = dict(pairs), random.Random(1)
        hot = rng.sample(sorted(oracle), 8)
        manager = tree.manager
        with FaultInjector(site="bptree.migrate.swap", rate=1.0) as injector:
            self.run_mixed(tree, oracle, hot, 200, rng, lambda: manager.adaptation_degraded)
        assert injector.failures_injected >= 40
        assert manager.adaptation_degraded and manager.quarantined_units > 0
        events = list(manager.events)
        first_quarantine = next(i for i, e in enumerate(events) if e.quarantined)
        first_disable = next(i for i, e in enumerate(events) if e.adaptation_disabled)
        assert first_quarantine < first_disable
        assert dict(tree.items()) == oracle
        assert violations_of(tree) == []

    def test_flaky_migrations_are_retried_and_adaptation_continues(self, monkeypatch):
        monkeypatch.setattr(manager_module, "DISABLE_AFTER_FAILURES", 100_000)
        pairs = [(key, key * 7 + 1) for key in range(0, 4000, 2)]
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs, leaf_capacity=64, manager_config=eager_config()
        )
        oracle, rng = dict(pairs), random.Random(2)
        hot = rng.sample(sorted(oracle), 100)
        manager = tree.manager
        with FaultInjector(site="bptree.*", rate=0.15, seed=2) as injector:
            self.run_mixed(
                tree, oracle, hot, 200, rng, lambda: manager.counters.migration_retries >= 5
            )
        assert injector.failures_injected > 0 and manager.counters.migration_retries > 0
        assert not manager.adaptation_degraded
        assert dict(tree.items()) == oracle
        assert violations_of(tree) == []
