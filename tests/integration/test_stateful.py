"""Hypothesis stateful machines: model-based testing of the indexes.

Each machine drives an index through arbitrary interleavings of
operations while comparing against a plain dict model and re-checking
structural invariants — the strongest correctness net in the suite.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.core.manager import ManagerConfig

KEYS = st.integers(min_value=0, max_value=400)
VALUES = st.integers(min_value=-(2**40), max_value=2**40)


class AdaptiveBTreeMachine(RuleBasedStateMachine):
    """The adaptive tree must match a dict under any op interleaving,
    including forced adaptation phases and encoding migrations."""

    def __init__(self):
        super().__init__()
        config = ManagerConfig(
            encoding_order=BTREE_ENCODING_ORDER,
            initial_skip_length=0,
            skip_min=0,
            skip_max=4,
            initial_sample_size=40,
            max_sample_size=40,
            use_bloom_filter=False,
        )
        self.tree = AdaptiveBPlusTree(leaf_capacity=8, manager_config=config)
        self.model = {}

    @rule(key=KEYS, value=VALUES)
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def lookup(self, key):
        assert self.tree.lookup(key) == self.model.get(key)

    @rule(key=KEYS, count=st.integers(min_value=1, max_value=20))
    def scan(self, key, count):
        expected = sorted(
            (k, v) for k, v in self.model.items() if k >= key
        )[:count]
        assert self.tree.scan(key, count) == expected

    @rule()
    def force_adaptation(self):
        self.tree.manager.run_adaptation()

    @rule(key=KEYS)
    def migrate_a_leaf(self, key):
        leaf, _ = self.tree.find_leaf(key)
        if leaf.num_entries() > 0:
            target = (
                LeafEncoding.GAPPED
                if leaf.encoding is not LeafEncoding.GAPPED
                else LeafEncoding.SUCCINCT
            )
            self.tree.migrate(leaf, target, None)

    @invariant()
    def sizes_consistent(self):
        assert len(self.tree) == len(self.model)

    def teardown(self):
        self.tree.verify()
        assert list(self.tree.items()) == sorted(self.model.items())


TestAdaptiveBTreeMachine = AdaptiveBTreeMachine.TestCase
TestAdaptiveBTreeMachine.settings = settings(
    max_examples=20, stateful_step_count=60, deadline=None
)


class HybridTrieMachine(RuleBasedStateMachine):
    """Lookups, scans, and branch migrations in any order must never
    change the trie's answers (it is a static key set)."""

    def __init__(self):
        super().__init__()
        from repro.hybridtrie.tree import HybridTrie

        keys = sorted({(key * 2654435761) % (2**40) for key in range(600)})
        self.pairs = [
            (key.to_bytes(8, "big"), index) for index, key in enumerate(keys)
        ]
        self.reference = dict(self.pairs)
        self.trie = HybridTrie(self.pairs, art_levels=1, adaptive=False)

    @rule(rank=st.integers(min_value=0, max_value=599))
    def lookup_existing(self, rank):
        key, value = self.pairs[rank % len(self.pairs)]
        assert self.trie.lookup(key) == value

    @rule(raw=st.integers(min_value=0, max_value=2**40))
    def lookup_random(self, raw):
        key = raw.to_bytes(8, "big")
        assert self.trie.lookup(key) == self.reference.get(key)

    @rule(rank=st.integers(min_value=0, max_value=599))
    def expand(self, rank):
        key = self.pairs[rank % len(self.pairs)][0]
        branch = self.trie._branch_on_path(key)
        if branch is not None:
            self.trie.expand_branch(branch)

    @rule(rank=st.integers(min_value=0, max_value=599))
    def compact(self, rank):
        key = self.pairs[rank % len(self.pairs)][0]
        # Walk to the shallowest expanded branch on the path and compact it.
        current = self.trie._root
        depth = 0
        from repro.hybridtrie.tagged import TrieBranch

        while current is not None:
            if isinstance(current, TrieBranch):
                if current.expanded:
                    self.trie.compact_branch(current)
                return
            if depth >= len(key):
                return
            current = current.find_child(key[depth])
            depth += 1

    @rule(rank=st.integers(min_value=0, max_value=599),
          count=st.integers(min_value=1, max_value=15))
    def scan(self, rank, count):
        start = self.pairs[rank % len(self.pairs)][0]
        expected = [
            (key, value) for key, value in self.pairs if key >= start
        ][:count]
        assert self.trie.scan(start, count) == expected

    def teardown(self):
        assert self.trie.items() == self.pairs


TestHybridTrieMachine = HybridTrieMachine.TestCase
TestHybridTrieMachine.settings = settings(
    max_examples=10, stateful_step_count=50, deadline=None
)
