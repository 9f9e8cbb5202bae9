"""Block-local Succinct leaf writes: layout identity (including every
branch of the in-buffer field kernels in ``repro.succinct.for_codec``,
which the leaf is the only writer of), modeled-counter parity with the
whole-leaf re-encode they replaced, per-tree leaf ids, and optimistic
readers under a concurrent writer."""

import random
import sys
import threading
from bisect import bisect_left
from collections import Counter
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import (
    INSERTED,
    LEAF_FULL,
    OVERWROTE,
    LeafEncoding,
    SuccinctStorage,
)
from repro.bptree.olc import OlcBPlusTree
from repro.bptree.tree import BPlusTree
from repro.core.budget import MemoryBudget
from repro.core.manager import ManagerConfig
from repro.dualstage.index import DualStageIndex
from repro.succinct import for_codec
from tests.helpers import count_calls

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


def assert_reads_match(storage, reference, edited):
    """Every live key, its neighbours and the ``edited`` key read as
    ``reference`` says: ``lookup`` gives the value, ``_find`` the
    insertion point and whether the key is there."""
    keys = sorted(reference)
    probes = {key + step for key in keys + [edited] for step in (-1, 0, 1)}
    for key in probes:
        assert storage.lookup(key) == reference.get(key)
        assert storage._find(key) == (bisect_left(keys, key), key in reference)


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


def op(action, key, value=0):
    """One operation on ``key`` itself (not an index into the live keys)."""
    return (action, -key - 1, value)


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
# The leaving value is a block's only minimum and the carried one is wider
# than the block: the block is re-encoded (its base moves), not widened.
@example(
    evens(
        96, lambda key: 2**20 if key == 62 else 0 if key == 126 else key // 2 % 7 + 1
    ),
    insert_update_delete(1, 3, 64, 0),
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
# ...and a value 5 below their base: a shift wider than the lanes' carry bits.
@example(evens(96, lambda key: 7), insert_update_delete(1, 2, 64, 0))
# The field kernels, one example per branch.  A field spliced in mid-block
# (then one cut out mid-block), at the end of a short last block, and at
# offset 31 of a full block, where the new key is the block's last.
@example(
    evens(80, lambda key: key // 2 % 3 + 1), [op("insert", 33, 2), op("delete", 40)]
)
@example(evens(70, lambda key: key // 2 % 3 + 1), [op("insert", 139, 3)])
@example(evens(64, lambda key: key // 2 % 3 + 1), [op("insert", 61, 2)])
# A key width that grows at the end: a far key appended to the short last block.
@example(evens(40, lambda key: key // 2 % 3 + 1), [op("insert", 200, 1)])
# A value below a block's base rebases the block's fields (values 1000-1005,
# width 3): by 1 it fits; by 10 a field overflows and the width grows.
@example(evens(40, lambda key: 1000 + key // 2 % 6), [op("insert", 1, 999)])
@example(evens(40, lambda key: 1000 + key // 2 % 6), [op("insert", 1, 990)])
# A rebase whose block pushes out its only top-bit field (1500): the width
# shrinks from 9 to 3.
@example(
    evens(40, lambda key: 1500 if key == 62 else 1000 + key // 2 % 4),
    [op("insert", 1, 999)],
)
# An overwrite below base in the 1-entry last block: rebased in the buffer
# by 1, then by far more, where the block keeps width 1.
@example(
    evens(65, lambda key: 1000 + key), [op("update", 128, 1127), op("update", 128, 5)]
)
# A delete pulls block 1's first value (99) below block 0's base (100).
@example(evens(96, lambda key: 99 if key == 64 else 100 + key // 2 % 6), [op("delete", 0)])
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
        assert_reads_match(storage, reference, key)


def count_encodes(monkeypatch):
    """Record every ``for_encode`` a leaf write falls back to."""
    encoded = []
    encode = for_codec.for_encode
    monkeypatch.setattr(
        for_codec, "for_encode", lambda values: encoded.append(values) or encode(values)
    )
    return encoded


def test_a_new_key_in_block_0_re_encodes_block_0_alone(monkeypatch):
    """Eight full blocks of evenly spaced keys: the new pair is spliced
    into block 0's packed buffers and the seven later blocks (and the
    1-entry block the last spills) are shifted in theirs, so nothing is
    encoded at all."""
    storage = SuccinctStorage([(key * 4, key % 4) for key in range(256)], 300)
    encoded = count_encodes(monkeypatch)
    assert storage.insert(1, 3) == INSERTED
    assert encoded == []
    monkeypatch.undo()
    assert_equals_fresh_encode(storage)


def test_a_block_one_bit_wider_is_re_packed_not_re_encoded(monkeypatch):
    """Three full blocks; block 1 starts 8 above block 0's last key and
    its values sit 3 above the value block 0 hands on.  The insert into
    block 0 widens block 1's key block from 6 to 7 bits and its value
    block from 3 to 4 (rebased by 3): both are re-packed in their
    buffers, so nothing is encoded."""
    keys = list(range(0, 64, 2)) + list(range(70, 198, 2))
    pairs = [
        (key, 997 if key == 62 else 1000 + index % 8) for index, key in enumerate(keys)
    ]
    storage = SuccinctStorage(pairs, 300)
    assert (storage._key_blocks[1].width, storage._value_blocks[1].width) == (6, 3)
    encoded = count_encodes(monkeypatch)
    assert storage.insert(1, 997) == INSERTED
    assert encoded == []
    monkeypatch.undo()
    assert (storage._key_blocks[1].width, storage._value_blocks[1].width) == (7, 4)
    assert_equals_fresh_encode(storage)


def test_the_wire_mix_re_encodes_nothing(monkeypatch):
    """61-bit preloaded values meet 40-bit writes, as on the wire
    benchmark.  Each block's first value is its 41-bit minimum and the
    rest sit above 2**60, so every value block has width 61.  A 40-bit
    insert lands below block 0's base and a 40-bit overwrite below the
    new one: both rebase in the buffer, and the carried 61-bit values
    keep every later block's frame, so no block is encoded."""
    pairs = [
        (4 * index, 2**40 + index if index % 32 == 0 else 2**60 + index * 2**40)
        for index in range(256)
    ]
    storage = SuccinctStorage(pairs, 300)
    assert {block.width for block in storage._value_blocks} == {61}
    encoded = count_encodes(monkeypatch)
    assert storage.insert(1, 2**39) == INSERTED
    assert storage.insert(8, 2**38) == OVERWROTE
    assert storage.insert(12, 2**39 + 5) == OVERWROTE
    assert encoded == []
    monkeypatch.undo()
    assert_equals_fresh_encode(storage)
    assert storage.lookup(1) == 2**39 and storage.lookup(8) == 2**38


def test_a_scan_decodes_no_whole_block():
    """An untraced Succinct ``tree.scan(k, 20)`` and a Dual-Stage scan
    over its static stage read only the fields they return: neither
    enters ``ForBlock.to_list`` or ``_decode_blocks`` (each scan made two
    ``to_list`` calls per block it read).  Both scans cross a block
    edge, and the tree's a leaf edge too."""
    pairs = [(3 * key, key ^ 0x5A5A) for key in range(2000)]
    tree = BPlusTree.bulk_load(pairs, LeafEncoding.SUCCINCT, leaf_capacity=64)
    start = 3 * 30  # leaf 0 holds 44 pairs (0.7 fill): blocks of 32 and 12
    result, calls = count_calls(partial(tree.scan, start, 20))
    assert result == pairs[30:50]
    assert not {"to_list", "_decode_blocks"} & set(calls), Counter(calls)
    index = DualStageIndex.bulk_load(pairs)
    start = 3 * 250  # the static stage's blocks hold 256 entries
    result, calls = count_calls(partial(index.scan, start, 20))
    assert result == pairs[250:270]
    assert not {"to_list", "_decode_blocks"} & set(calls), Counter(calls)


def test_scan_entries_match_pairs_from_every_start():
    pairs = [(key * 3, key) for key in range(100)]
    storage = SuccinctStorage(pairs, CAPACITY)
    for start in (0, 1, 93, 96, 97, 297, 298):
        expected = [pair for pair in pairs if pair[0] >= start]
        assert storage.pairs_from(start, len(pairs)) == expected


def test_a_read_between_publish_assignments_raises_index_error():
    """``_publish`` replaces the key blocks, then the value blocks.  A
    reader between the two finds a new key at an offset past the end of
    the old value block; ``lookup`` must raise ``IndexError`` (what
    ``OlcBPlusTree.lookup`` restarts on), not decode an empty field as
    the block's base."""
    pairs = [(2 * key, 100 + key) for key in range(40)]  # blocks of 32 and 8
    storage = SuccinctStorage(pairs, CAPACITY)
    torn = []

    class PausedBeforeValues(list):
        def __setitem__(self, index, blocks):
            torn.append((len(storage._key_blocks[1]), len(self[1])))
            assert storage.lookup(78) == 139  # an offset both blocks hold
            with pytest.raises(IndexError):
                storage.lookup(80)
            super().__setitem__(index, blocks)

    storage._value_blocks = PausedBeforeValues(storage._value_blocks)
    assert storage.insert(80, 7) == INSERTED
    assert torn == [(9, 8)]
    assert storage.lookup(80) == 7


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
#: Each entry is (counter snapshot, size_bytes, the manager's eager
#: expansions, which the snapshot held as ``eager_expansion:succinct``).
PINNED = {
    "eager": (
        {
            "inner_visit": 10030,
            "leaf_rebuild_entry": 25774,
            "leaf_split": 15,
            "leaf_visit:gapped": 3822,
            "leaf_visit:succinct": 1308,
            "leaf_write:gapped": 1708,
            "leaf_write:succinct": 507,
            "migration:gapped->succinct": 249,
            "migration:succinct->gapped": 271,
            "migration_entry:recode": 26255,
            "sample_check": 5130,
        },
        46830,
        269,
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
        0,
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
    snapshot, size_bytes, eager_expansions = PINNED[scenario]
    assert tree.counters.snapshot() == snapshot
    assert tree.size_bytes() == size_bytes
    assert tree.manager.counters.eager_expansions == eager_expansions


def test_budget_blocked_scenario_never_expands_eagerly():
    snapshot, _, eager_expansions = PINNED["budget_blocked"]
    assert eager_expansions == 0
    assert snapshot["leaf_write:succinct"] > 1000
    assert PINNED["eager"][2] > 0


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
                tree.encoding_census(),
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
