"""A fault at every injection point of a trie migration must be harmless.

Mirrors the B+-tree fault tests: observer-enumerate the injection points
of ``expand_branch`` / ``compact_branch``, then arm a fault at each point
in turn and prove via the invariant validator and a key-set diff against
the underlying FST (the oracle — it is static and complete) that the
trie is exactly as it was before the attempt.
"""

import random

import pytest

from repro.core.invariants import violations_of
from repro.core import manager as manager_module
from repro.core.manager import ManagerConfig
from repro.faults import FaultInjector, InjectedFault
from repro.hybridtrie.tagged import TrieBranch
from repro.hybridtrie.tree import TRIE_ENCODING_ORDER, HybridTrie

PAIRS = [(key.to_bytes(4, "big"), key) for key in range(0, 2000, 7)]


def make_trie():
    return HybridTrie(PAIRS, art_levels=1, adaptive=False)


def branches_of(trie):
    found = []

    def walk(node):
        if isinstance(node, TrieBranch):
            found.append(node)
            if node.expanded:
                walk(node.art_node)
            return
        for _, child in node.children_items():
            if not isinstance(child, int):
                walk(child)

    walk(trie._root)
    return found


def enumerate_sites(operation):
    trie = make_trie()
    branch = branches_of(trie)[0]
    if operation == "compact":
        assert trie.expand_branch(branch)
    with FaultInjector() as observer:
        if operation == "expand":
            assert trie.expand_branch(branch)
        else:
            assert trie.compact_branch(branch)
    return observer.sites_seen()


EXPAND_SITES = enumerate_sites("expand")
COMPACT_SITES = enumerate_sites("compact")


def test_migrations_cross_the_expected_sites():
    assert EXPAND_SITES == {
        "trie.expand.read": 1,
        "trie.expand.build": 1,
        "trie.expand.swap": 1,
    }
    assert COMPACT_SITES == {
        "trie.compact.collect": 1,
        "trie.compact.swap": 1,
    }


class TestExpandFaults:
    @pytest.mark.parametrize("fail_at", range(1, sum(EXPAND_SITES.values()) + 1))
    def test_faulted_expansion_leaves_trie_intact(self, fail_at):
        trie = make_trie()
        branch = branches_of(trie)[0]
        branches_before = trie.num_branches
        with FaultInjector(fail_at=fail_at) as injector, pytest.raises(InjectedFault):
            trie.expand_branch(branch)
        assert injector.failures_injected == 1
        assert not branch.expanded  # swap never happened
        assert trie.num_branches == branches_before
        assert violations_of(trie) == []
        assert trie.items() == PAIRS

    @pytest.mark.parametrize("fail_at", range(1, sum(EXPAND_SITES.values()) + 1))
    def test_expansion_succeeds_after_the_fault_clears(self, fail_at):
        trie = make_trie()
        branch = branches_of(trie)[0]
        with FaultInjector(fail_at=fail_at), pytest.raises(InjectedFault):
            trie.expand_branch(branch)
        assert trie.expand_branch(branch)
        assert branch.expanded
        assert violations_of(trie) == []
        assert trie.items() == PAIRS


class TestCompactFaults:
    @pytest.mark.parametrize("fail_at", range(1, sum(COMPACT_SITES.values()) + 1))
    def test_faulted_compaction_leaves_trie_intact(self, fail_at):
        trie = make_trie()
        branch = branches_of(trie)[0]
        assert trie.expand_branch(branch)
        branches_before = trie.num_branches
        with FaultInjector(fail_at=fail_at) as injector, pytest.raises(InjectedFault):
            trie.compact_branch(branch)
        assert injector.failures_injected == 1
        assert branch.expanded  # still expanded: nothing was detached
        assert trie.num_branches == branches_before
        assert violations_of(trie) == []
        assert trie.items() == PAIRS

    @pytest.mark.parametrize("fail_at", range(1, sum(COMPACT_SITES.values()) + 1))
    def test_compaction_succeeds_after_the_fault_clears(self, fail_at):
        trie = make_trie()
        branch = branches_of(trie)[0]
        assert trie.expand_branch(branch)
        with FaultInjector(fail_at=fail_at), pytest.raises(InjectedFault):
            trie.compact_branch(branch)
        assert trie.compact_branch(branch)
        assert not branch.expanded
        assert violations_of(trie) == []
        assert trie.items() == PAIRS

    def test_faulted_compaction_of_nested_expansion(self):
        trie = make_trie()
        outer = branches_of(trie)[0]
        assert trie.expand_branch(outer)
        inner = next(
            child for child in branches_of(trie) if child.level > outer.level
        )
        assert trie.expand_branch(inner)
        branches_before = trie.num_branches
        with FaultInjector(site="trie.compact.swap", fail_at=1), pytest.raises(
            InjectedFault
        ):
            trie.compact_branch(outer)
        assert outer.expanded and inner.expanded
        assert not inner.detached
        assert trie.num_branches == branches_before
        assert violations_of(trie) == []
        # The retry drops the whole subtree, inner wrapper included.
        assert trie.compact_branch(outer)
        assert inner.detached
        assert violations_of(trie) == []
        assert trie.items() == PAIRS


def test_flaky_faults_under_a_rotating_hot_range_are_retried(monkeypatch):
    """Branches heat up, expand, cool down and compact under flaky
    faults at every ``trie.*`` site; the manager retries and the trie
    keeps its contents exactly."""
    monkeypatch.setattr(manager_module, "DISABLE_AFTER_FAILURES", 100_000)
    rng = random.Random(3)
    keys = sorted(key.to_bytes(4, "big") for key in rng.sample(range(1 << 28), 4000))
    pairs = [(key, position) for position, key in enumerate(keys)]
    config = ManagerConfig(
        encoding_order=TRIE_ENCODING_ORDER,
        initial_skip_length=0,
        skip_min=0,
        skip_max=4,
        initial_sample_size=96,
        max_sample_size=96,
    )
    trie = HybridTrie(pairs, art_levels=1, manager_config=config)
    manager = trie.manager
    with FaultInjector(site="trie.*", rate=0.15, seed=3) as injector:
        for batch in range(400):
            hot = keys[(batch * 97) % (len(keys) - 256) :][:256]
            for _ in range(300):
                assert trie.lookup(rng.choice(hot)) is not None
            if manager.counters.migration_retries >= 5:
                break
    assert injector.failures_injected > 0 and manager.counters.migration_retries > 0
    assert trie.items() == pairs
    assert violations_of(trie) == []
