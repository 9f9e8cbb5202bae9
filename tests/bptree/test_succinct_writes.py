"""Block-local Succinct leaf writes: layout identity (including every
boundary of the in-buffer shift kernel), modeled-counter parity with the
whole-leaf re-encode they replaced, per-tree leaf ids, and optimistic
readers under a concurrent writer."""

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bptree import leaves
from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import (
    INSERTED,
    LEAF_FULL,
    OVERWROTE,
    LeafEncoding,
    SuccinctStorage,
)
from repro.bptree.olc import OlcBPlusTree
from repro.core.budget import MemoryBudget
from repro.core.manager import ManagerConfig

CAPACITY = 256
KEYS = st.integers(0, 2**40)
# Preloaded 61-bit values meet 40-bit writes, as on the wire benchmark;
# 2-bit values give narrow blocks, width 1 included.
VALUES = st.one_of(st.integers(0, 2**61), st.integers(0, 2**40), st.integers(0, 3))


def assert_equals_fresh_encode(storage):
    """Every block, minimum and byte count equals a from-scratch encode."""
    fresh = SuccinctStorage(storage.to_pairs(), storage.capacity)
    assert storage._key_blocks == fresh._key_blocks
    assert storage._value_blocks == fresh._value_blocks
    assert storage._block_min_keys == fresh._block_min_keys
    assert storage.num_entries() == fresh.num_entries()
    assert storage.size_bytes() == fresh.size_bytes()
    recomputed = 16 + sum(
        block.size_bytes() for block in storage._key_blocks + storage._value_blocks
    )
    assert storage.size_bytes() == recomputed


def apply(storage, reference, action, key, value):
    """One mutation on the storage and on the dict that models it."""
    if action == "insert":
        outcome = storage.insert(key, value)
        if key in reference:
            assert outcome == OVERWROTE
        elif len(reference) >= storage.capacity:
            assert outcome == LEAF_FULL
            return
        else:
            assert outcome == INSERTED
        reference[key] = value
    elif action == "update":
        assert storage.update(key, value) == (key in reference)
        if key in reference:
            reference[key] = value
    else:
        assert storage.delete(key) == (key in reference)
        reference.pop(key, None)


OPERATION = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    # An index into the live keys (hits: overwrite, update, delete) or a
    # fresh key; both arms of every operation get exercised.
    st.one_of(st.integers(0, CAPACITY), KEYS.map(lambda key: -key - 1)),
    VALUES,
)


def mixed(keys):
    """``keys`` with values that share no order with them."""
    return {key: key ^ 0x5A5A for key in keys}


def evens(count, value_of):
    """``count`` keys 0, 2, 4, ... (odd keys are free to insert), block
    ``i`` holding keys ``64 * i`` to ``64 * i + 62``."""
    return {key: value_of(key) for key in range(0, 2 * count, 2)}


def insert_update_delete(new_key, value, updated, deleted):
    """An insert into block 0 (shifts the blocks after it), one overwrite
    and one delete from block 0 (shifts them back)."""
    return [
        ("insert", -new_key - 1, value),
        ("update", -updated - 1, value),
        ("delete", -deleted - 1, 0),
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(KEYS, VALUES, max_size=CAPACITY),
    st.lists(OPERATION, max_size=40),
)
# Empty leaf; append at a block boundary (n % 32 == 0); position 0; an
# overwrite in a full leaf; delete of the only entry of the last block.
@example({}, [("insert", -8, 1), ("delete", 0, 0), ("delete", 0, 0)])
@example(mixed(range(10, 74)), [("insert", -(2**40) - 1, 2**61)])
@example(mixed(range(10, 74)), [("insert", -1, 0), ("delete", 0, 0)])
@example(mixed(range(CAPACITY)), [("insert", 255, 2**61), ("insert", -999, 1)])
@example(mixed(range(65)), [("delete", 64, 0), ("insert", -64 - 1, 7)])
# Kernel boundaries, each met by insert, overwrite and delete.
# The plain shift: every block keeps its frame, a short last block included.
@example(
    evens(80, lambda key: 0 if key // 2 % 32 == 5 else key // 2 % 3 + 1),
    insert_update_delete(1, 2, 64, 0),
)
# A key block's width grows: block 1 is 64, 66, ... 126 plus block 0's 62
# (insert); block 2 is far from block 1, whose last slot it fills (delete).
@example(
    {**evens(32, int), **{key: key for key in range(64, 96)}},
    insert_update_delete(1, 5, 64, 0),
)
@example(
    {**evens(64, int), 10**6: 0, 10**6 + 1: 0}, insert_update_delete(1, 5, 64, 0)
)
# A key block's width shrinks: block 1's far last key is pushed out.
@example(
    {**evens(63, int), 300: 0, **{key: 0 for key in range(302, 340, 2)}},
    insert_update_delete(1, 5, 64, 0),
)
# A value block's width shrinks: the leaving value is its only top-bit field
# (block 1's last, pushed out by an insert; its first, pulled by a delete;
# the overwritten one).
@example(
    evens(96, lambda key: 2**20 if key in (126, 128) else key // 2 % 4),
    insert_update_delete(1, 1, 126, 0),
)
# The leaving value is a block's only minimum.
@example(
    evens(96, lambda key: 0 if key in (126, 128) else 5),
    insert_update_delete(1, 5, 128, 0),
)
# The carried value is below the next block's base.
@example(
    evens(96, lambda key: 1 if key < 64 else 100 + key),
    insert_update_delete(1, 1, 70, 0),
)
# Width-1 blocks: every value equal (all deltas 0), or 0 and 1.
@example(evens(96, lambda key: 7), insert_update_delete(1, 7, 64, 0))
@example(evens(96, lambda key: 7), insert_update_delete(1, 8, 64, 0))
@example(evens(96, lambda key: key // 2 % 2), insert_update_delete(1, 1, 64, 0))
# The wire benchmark's mix: 61-bit preloads, 40-bit writes.
@example(
    evens(200, lambda key: (key * 2654435761) % 2**61 + 1),
    insert_update_delete(1, 2**40 - 5, 130, 0)
    + [("insert", -(2 * key + 1) - 1, 2**39 + key) for key in range(40)],
)
def test_any_write_sequence_equals_a_fresh_encode(preload, operations):
    reference = dict(preload)
    storage = SuccinctStorage(sorted(reference.items()), CAPACITY)
    for action, pick, value in operations:
        live = sorted(reference)
        if pick < 0:
            key = -pick - 1
        elif live:
            key = live[pick % len(live)]
        else:
            key = pick
        apply(storage, reference, action, key, value)
        assert storage.to_pairs() == sorted(reference.items())
        assert_equals_fresh_encode(storage)


def test_a_new_key_in_block_0_re_encodes_block_0_alone(monkeypatch):
    """Eight full blocks of evenly spaced keys: the seven later blocks (and
    the 1-entry block the last spills) are shifted in their packed
    buffers, so only the touched key and value blocks are encoded."""
    storage = SuccinctStorage([(key * 4, key % 4) for key in range(256)], 300)
    encoded = []
    encode = leaves.for_encode
    monkeypatch.setattr(
        leaves, "for_encode", lambda values: encoded.append(values) or encode(values)
    )
    assert storage.insert(1, 3) == INSERTED
    assert len(encoded) <= 2
    monkeypatch.undo()
    assert_equals_fresh_encode(storage)


def test_scan_entries_match_pairs_from_every_start():
    pairs = [(key * 3, key) for key in range(100)]
    storage = SuccinctStorage(pairs, CAPACITY)
    for start in (0, 1, 93, 96, 97, 297, 298):
        expected = [pair for pair in pairs if pair[0] >= start]
        assert list(storage.entries_from(start)) == expected


# ----------------------------------------------------------------------
# Modeled counters: wall-clock changed, what the cost model prices did not
# ----------------------------------------------------------------------
def seeded_stream(tree, pairs, seed, operations=5000):
    """lookup / insert / update / delete / scan, 40 % on a 50-key hot set."""
    rng = random.Random(seed)
    keys = [key for key, _ in pairs]
    hot = keys[:50]
    for step in range(operations):
        key = rng.choice(hot) if rng.random() < 0.4 else rng.choice(keys)
        draw = rng.random()
        if draw < 0.50:
            tree.lookup(key)
        elif draw < 0.70:
            tree.insert(rng.randrange(10**10), step)
        elif draw < 0.80:
            tree.insert(key, step)
        elif draw < 0.90:
            tree.update(key, step)
        elif draw < 0.95:
            tree.delete(key)
        else:
            tree.scan(key, 20)


def adaptive_tree(pairs, bits_per_key):
    """All-Succinct at ~98 bits/key; an all-Gapped leaf costs ~190."""
    config = ManagerConfig(
        encoding_order=BTREE_ENCODING_ORDER,
        budget=MemoryBudget.relative(bits_per_key),
        initial_skip_length=0,
        skip_min=0,
        skip_max=10,
        initial_sample_size=400,
        max_sample_size=400,
    )
    return AdaptiveBPlusTree.bulk_load_adaptive(
        pairs, leaf_capacity=64, manager_config=config
    )


def stream_pairs():
    rng = random.Random(7)
    return [(key, key + 1) for key in sorted(rng.sample(range(10**10), 2000))]


#: Pinned from the parent commit (whole-leaf re-encode), each scenario in a
#: fresh process so its tree had the ids a per-tree allocator hands out.
#: "eager": the budget binds part of the time, so eager expansions, writes
#: into Succinct leaves and compactions all occur; "budget_blocked": it is
#: below the cold floor, as on the replica profiles, and nothing expands.
PINNED = {
    "eager": (
        {
            "eager_expansion:succinct": 321,
            "inner_visit": 10030,
            "leaf_rebuild_entry": 21397,
            "leaf_split": 15,
            "leaf_visit:gapped": 3950,
            "leaf_visit:succinct": 1180,
            "leaf_write:gapped": 1792,
            "leaf_write:succinct": 423,
            "migration:gapped->succinct": 296,
            "migration:succinct->gapped": 321,
            "migration_entry:recode": 31007,
            "sample_check": 5130,
        },
        49235,
    ),
    "budget_blocked": (
        {
            "inner_visit": 10030,
            "leaf_rebuild_entry": 102858,
            "leaf_split": 15,
            "leaf_visit:succinct": 5130,
            "leaf_write:succinct": 2215,
            "sample_check": 5130,
        },
        24540,
    ),
}


@pytest.mark.parametrize(
    "scenario, bits_per_key", [("eager", 140.0), ("budget_blocked", 40.0)]
)
def test_modeled_counters_equal_the_parent_commit(scenario, bits_per_key):
    pairs = stream_pairs()
    tree = adaptive_tree(pairs, bits_per_key)
    seeded_stream(tree, pairs, seed=11)
    tree.verify()
    snapshot, size_bytes = PINNED[scenario]
    assert tree.counters.snapshot() == snapshot
    assert tree.size_bytes() == size_bytes


def test_budget_blocked_scenario_never_expands_eagerly():
    snapshot, _ = PINNED["budget_blocked"]
    assert not any(event.startswith("eager_expansion") for event in snapshot)
    assert snapshot["leaf_write:succinct"] > 1000
    assert any(event.startswith("eager_expansion") for event in PINNED["eager"][0])


# ----------------------------------------------------------------------
# Per-tree leaf ids: the manager's decisions repeat within a process
# ----------------------------------------------------------------------
def test_second_tree_in_a_process_decides_like_the_first():
    pairs = stream_pairs()
    outcomes = []
    for _ in range(2):
        tree = adaptive_tree(pairs, bits_per_key=170.0)
        seeded_stream(tree, pairs, seed=5)
        counters = tree.manager.counters
        outcomes.append(
            (
                [leaf.leaf_id for leaf in tree.leaves()],
                counters.adaptation_phases,
                counters.expansions,
                counters.compactions,
                tree.leaf_encoding_census(),
            )
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] > 0 and outcomes[0][2] > 0


# ----------------------------------------------------------------------
# Optimistic readers against a writer on Succinct leaves
# ----------------------------------------------------------------------
def test_olc_readers_see_no_torn_succinct_leaf():
    stride = 10**6  # value % stride == key, whatever version was written
    loaded = list(range(0, 6000, 3))
    tree = OlcBPlusTree.bulk_load(
        [(key, key) for key in loaded],
        leaf_encoding=LeafEncoding.SUCCINCT,
        leaf_capacity=64,
    )
    errors = []
    stop = threading.Event()

    def check(key, value):
        if value is None:
            assert key % 3, f"loaded key {key} vanished"
        else:
            assert value % stride == key, f"key {key} -> {value}"

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                key = rng.randrange(6000)
                check(key, tree.lookup(key))
                scanned = tree.scan(key, 40)
                assert [k for k, _ in scanned] == sorted({k for k, _ in scanned})
                for scanned_key, value in scanned:
                    assert scanned_key >= key
                    check(scanned_key, value)
        # The failure is reported by the main thread, which re-raises it.
        except Exception as exc:  # pragma: no cover - only on a regression
            errors.append(exc)

    def writer():
        rng = random.Random(3)
        try:
            for version in range(1, 1501):
                key = rng.choice(loaded)
                tree.insert(key, key + version * stride)  # overwrite
                fresh = rng.randrange(6000)
                tree.insert(fresh, fresh + version * stride)
        except Exception as exc:  # pragma: no cover - only on a regression
            errors.append(exc)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
    threads.append(threading.Thread(target=writer))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    tree.verify()
    for key in loaded:
        assert tree.lookup(key) % stride == key
