"""The B+-tree family's untraced read path costs its leaf read.

A lookup walks to its leaf keeping only the parent, reads the tracer off
the telemetry switchboard, charges the cost model in place and passes
the access through a one-frame sample gate.  The budgets below count
Python-level calls (``sys.setprofile`` ``call`` events; each operation
is called through ``functools.partial``, so no test frame is counted),
so a regrown path fails on any host; each leaves the room the router
budgets in ``tests/service/test_dispatch.py`` leave for other
interpreter versions (26 for 23 calls).  The pinned replay
holds the counts the cost model prices to the values the tree charged
before the read path changed.
"""

import dataclasses
import random
from collections import Counter
from functools import partial
from itertools import repeat

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.core.budget import MemoryBudget
from repro.core.manager import ManagerConfig
from tests.helpers import count_calls

PAIRS = [(key * 10, key) for key in range(5000)]


def _adaptive():
    """Every leaf Succinct; the first 50 accesses are not samples."""
    tree = AdaptiveBPlusTree.bulk_load_adaptive(PAIRS)
    assert tree.manager.skip_length == 50
    return tree


def test_adaptive_lookup_call_budget():
    """An untraced lookup on a Succinct leaf that is not a sample makes
    at most 6 calls (5 on 3.11): the lookup, the access hook, the sample
    gate, the leaf's lookup and its probe.  With a tracer call, a
    descent that built its path, three ``OpCounters.add`` frames and a
    gate that called the sampler, it made 11."""
    tree = _adaptive()
    value, calls = count_calls(partial(tree.lookup, 20_000))
    assert value == 2_000
    assert tree.find_leaf(20_000)[0].encoding is LeafEncoding.SUCCINCT
    assert tree.manager.counters.sampled == 0
    assert len(calls) <= 6, Counter(calls).most_common()


def test_plain_lookup_call_budget():
    """The same lookup on a plain Succinct tree makes at most 5 calls (4
    on 3.11: no sample gate); it made 8."""
    tree = BPlusTree.bulk_load(PAIRS, LeafEncoding.SUCCINCT)
    value, calls = count_calls(partial(tree.lookup, 20_000))
    assert value == 2_000
    assert len(calls) <= 5, Counter(calls).most_common()


def test_adaptive_scan_call_budget():
    """A ``scan(k, 20)`` across two Succinct leaves makes at most 25
    calls (22 on 3.11): one walk to the first leaf, then per leaf a
    slice (8 calls into the Succinct run), the access hook and the
    sample gate, with no generator frame per leaf; it made 32."""
    tree = _adaptive()
    first = next(tree.leaves())
    start = first.to_pairs()[-5][0]
    result, calls = count_calls(partial(tree.scan, start, 20))
    assert result == PAIRS[start // 10 : start // 10 + 20]
    assert first.next_leaf.min_key() <= result[-1][0]
    assert len(calls) <= 25, Counter(calls).most_common()


def test_adaptive_insert_call_budget():
    """An insert into an existing Gapped leaf (the warm-up insert
    expanded it eagerly) makes at most 15 calls (13 on 3.11): the
    descent that keeps the split path, the two hooks, the sample gate,
    the write charge and the leaf's write and size reads; it made 18."""
    tree = _adaptive()
    # Each call inserts the next new key, with no Python frame between.
    inserts = map(tree.insert, range(20_001, 20_010), repeat(1))
    _, calls = count_calls(partial(next, inserts))
    assert tree.find_leaf(20_001)[0].encoding is LeafEncoding.GAPPED
    assert tree.manager.counters.eager_expansions == 1
    assert len(calls) <= 15, Counter(calls).most_common()


def _replay():
    """Lookups (a tenth of them misses), scans across leaves, inserts
    that split, deletes; the hot range moves half-way, under a relative
    budget that binds: eager expansions are refused and the manager
    compacts."""
    config = ManagerConfig(
        encoding_order=BTREE_ENCODING_ORDER,
        budget=MemoryBudget.relative(90.0),
        initial_skip_length=2,
        skip_min=1,
        skip_max=8,
        initial_sample_size=150,
        max_sample_size=150,
    )
    tree = AdaptiveBPlusTree.bulk_load_adaptive(
        [(key * 10, key) for key in range(3000)], leaf_capacity=32, manager_config=config
    )
    rng = random.Random(52)
    for step in range(6000):
        roll = rng.random()
        hot = rng.randrange(0, 6000) if step < 3000 else rng.randrange(18000, 24000)
        if roll < 0.55:
            tree.lookup(hot * 10)
        elif roll < 0.65:
            tree.lookup(hot * 10 + 5)
        elif roll < 0.75:
            tree.scan(hot * 10, 40)
        elif roll < 0.92:
            tree.insert(hot * 10 + rng.randrange(1, 10), step)
        else:
            tree.delete(rng.randrange(0, 3000) * 10)
    return tree


#: Recorded on the commit before the read path charged in place.
PINNED_COUNTERS = {
    "inner_visit": 12064,
    "leaf_rebuild_entry": 10820,
    "leaf_split": 32,
    "leaf_visit:gapped": 5280,
    "leaf_visit:succinct": 1586,
    "leaf_write:gapped": 958,
    "leaf_write:succinct": 496,
    "migration:gapped->succinct": 140,
    "migration:succinct->gapped": 140,
    "migration_entry:recode": 6189,
    "sample_check": 6866,
}
PINNED_MANAGER = {
    "accesses": 6866,
    "sampled": 1396,
    "bloom_rejections": 204,
    "map_updates": 1192,
    "adaptation_phases": 9,
    "heap_operations": 220,
    "classified_items": 916,
    "expansions": 41,
    "compactions": 140,
    "evictions": 41,
    "migration_failures": 0,
    "migration_retries": 0,
    "quarantined_units": 0,
    # Counted as ``eager_expansion:succinct`` and by two tree ints
    # before the manager counted them.
    "eager_expansions": 99,
    "eager_expansions_refused": 105,
    "eager_expansion_failures": 0,
}


def test_modeled_counters_equal_the_parent_commit():
    tree = _replay()
    tree.verify()
    assert tree.counters.snapshot() == PINNED_COUNTERS
    assert dataclasses.asdict(tree.manager.counters) == PINNED_MANAGER
    assert tree.stats()["eager_expansions"] == 99
    assert tree.stats()["eager_expansions_refused"] == 105
    assert (tree.num_leaves, tree.height) == (169, 3)
