"""Tests for Optimistic Lock Coupling (Section 4.1.5)."""

import random
import threading
import time

import pytest

from repro.bptree.inner import InnerNode
from repro.bptree.leaves import LeafEncoding
from repro.bptree.olc import OlcBPlusTree, OlcRestart, VersionedLock, _lock_of
from repro.bptree.tree import BPlusTree
from tests.bptree.test_succinct_writes import seeded_stream, stream_pairs


class TestVersionedLock:
    def test_read_version_even_when_free(self):
        lock = VersionedLock()
        assert lock.version == 0
        assert not lock.locked

    def test_read_version_restarts_while_locked(self):
        lock = VersionedLock()
        lock.write_lock()
        assert lock.version & 1  # odd: a reader restarts
        with pytest.raises(OlcRestart):
            lock.upgrade(lock.version)
        lock.write_unlock()
        assert lock.version == 2

    def test_validate_detects_writer(self):
        lock = VersionedLock()
        version = lock.version
        lock.write_lock()
        lock.write_unlock()
        assert lock.version != version
        with pytest.raises(OlcRestart):
            lock.upgrade(version)

    def test_upgrade_success_and_stale(self):
        lock = VersionedLock()
        version = lock.version
        lock.upgrade(version)
        assert lock.locked
        lock.write_unlock()
        with pytest.raises(OlcRestart):
            lock.upgrade(version)  # version moved on

    def test_upgrade_fails_when_held(self):
        lock = VersionedLock()
        version = lock.version
        lock.write_lock()
        with pytest.raises(OlcRestart):
            lock.upgrade(version)
        lock.write_unlock()


class TestSingleThreadedSemantics:
    """OLC must behave exactly like the plain tree without concurrency."""

    def test_insert_lookup_delete(self):
        tree = OlcBPlusTree(LeafEncoding.GAPPED, leaf_capacity=8)
        rng = random.Random(0)
        data = rng.sample(range(10**6), 1200)
        for key in data:
            assert tree.insert(key, key + 1)
        tree.verify()
        for key in data:
            assert tree.lookup(key) == key + 1
        for key in data[:600]:
            assert tree.delete(key)
        tree.verify()
        assert len(tree) == 600

    def test_update(self):
        tree = OlcBPlusTree(leaf_capacity=8)
        tree.insert(1, 1)
        assert tree.update(1, 99)
        assert tree.lookup(1) == 99
        assert not tree.update(2, 0)

    def test_scan(self):
        tree = OlcBPlusTree(leaf_capacity=8)
        for key in range(200):
            tree.insert(key, key)
        assert tree.scan(50, 10) == [(key, key) for key in range(50, 60)]
        assert tree.scan(500, 5) == []

    def test_bulk_load_then_olc_ops(self):
        pairs = [(key, key) for key in range(500)]
        tree = OlcBPlusTree(leaf_capacity=16)
        tree._bulk_load_into(pairs, 0.7)
        assert tree.lookup(123) == 123
        tree.insert(10_000, 1)
        assert tree.lookup(10_000) == 1
        tree.verify()

    def test_all_leaf_encodings(self):
        for encoding in LeafEncoding:
            tree = OlcBPlusTree(encoding, leaf_capacity=8)
            for key in range(150):
                tree.insert(key, key * 2)
            assert tree.lookup(77) == 154
            tree.verify()


class _CountingLock:
    """A ``threading.Lock`` stand-in that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1

    def __exit__(self, *exc_info):
        self._lock.release()


class TestEveryWritePathTakesTheVersionLock:
    """Nothing inherited from the plain tree may touch a leaf unlocked:
    readers only detect interference through the version counter."""

    def build(self):
        return OlcBPlusTree.bulk_load(
            [(key, key) for key in range(0, 400, 2)], leaf_capacity=16
        )

    def test_sorted_batch_bumps_each_touched_leaf(self):
        tree = self.build()
        batch = [(11, 1), (13, 1), (301, 1)]
        touched = {tree.find_leaf(key)[0] for key, _ in batch}
        assert len(touched) == 2
        assert tree.insert_many(batch) == [True, True, True]
        assert sorted(_lock_of(leaf).version for leaf in touched) == [2, 4]
        assert not any(_lock_of(leaf).locked for leaf in tree.leaves())

    def test_single_pair_batch_bumps_the_leaf(self):
        tree = self.build()
        leaf, _ = tree.find_leaf(11)
        tree.insert_many([(11, 1)])
        assert _lock_of(leaf).version == 2

    def test_splitting_batch_serializes_like_a_splitting_insert(self):
        batched = OlcBPlusTree.bulk_load(
            [(key, key) for key in range(0, 64, 2)], leaf_capacity=8, fill_factor=1.0
        )
        looped = OlcBPlusTree.bulk_load(
            [(key, key) for key in range(0, 64, 2)], leaf_capacity=8, fill_factor=1.0
        )
        batched._structure_lock = _CountingLock()
        looped._structure_lock = _CountingLock()
        leaf, parent = batched.find_leaf(1)
        assert leaf.num_entries() == leaf.capacity
        batch = [(1, 1), (3, 3)]
        batched.insert_many(batch)
        for key, value in batch:
            looped.insert(key, value)
        assert batched.counters.get("leaf_split") == 1
        assert batched._structure_lock.acquired == looped._structure_lock.acquired == 1
        assert _lock_of(parent).version == 2  # the split bumped the parent
        assert [_lock_of(node).version for node in batched.inner_nodes()] == [
            _lock_of(node).version for node in looped.inner_nodes()
        ]
        assert [_lock_of(node).version for node in batched.leaves()] == [
            _lock_of(node).version for node in looped.leaves()
        ]
        batched.verify()

    def test_lookup_many_reads_through_validated_lookups(self):
        tree = self.build()
        leaf, _ = tree.find_leaf(10)
        _lock_of(leaf).write_lock()  # a writer is mid-flight on the leaf
        done = []
        reader = threading.Thread(target=lambda: done.append(tree.lookup_many([10, 12])))
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive()  # the batched read waits, as lookup() does
        _lock_of(leaf).write_unlock()
        reader.join(timeout=30)
        assert done == [[10, 12]]
        assert tree.restarts > 0

    def test_torn_leaf_read_restarts_instead_of_raising(self):
        tree = self.build()
        leaf, _ = tree.find_leaf(10)
        storage = leaf.storage
        real_lookup = type(storage).lookup
        calls = []

        class TornOnce(type(storage)):
            __slots__ = ()

            def lookup(self, key):
                calls.append(key)
                if len(calls) == 1:
                    raise IndexError("a writer shifted the arrays mid-read")
                return real_lookup(self, key)

        storage.__class__ = TornOnce
        assert tree.lookup(10) == 10
        assert calls == [10, 10] and tree.restarts == 1


class TestConcurrent:
    def test_readers_with_concurrent_writers(self):
        tree = OlcBPlusTree(LeafEncoding.GAPPED, leaf_capacity=16)
        for key in range(0, 4000, 2):
            tree.insert(key, key)
        errors = []
        stop = threading.Event()

        def reader():
            rng = random.Random(threading.get_ident())
            try:
                while not stop.is_set():
                    key = rng.randrange(0, 4000)
                    value = tree.lookup(key)
                    if key % 2 == 0:
                        assert value == key, f"even key {key} -> {value}"
                    # Odd keys may or may not have been inserted yet; if a
                    # value exists it must be correct.
                    elif value is not None:
                        assert value == key
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer(base):
            try:
                for key in range(base, 4000, 8):
                    tree.insert(key, key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=writer, args=(base,)) for base in (1, 3, 5, 7)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        tree.verify()
        for key in range(4000):
            assert tree.lookup(key) == key

    def test_concurrent_disjoint_writers(self):
        tree = OlcBPlusTree(LeafEncoding.GAPPED, leaf_capacity=8)
        errors = []

        def writer(base):
            try:
                for offset in range(800):
                    tree.insert(base * 10_000 + offset, offset)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(tree) == 3200
        tree.verify()

    def test_scans_during_writes_return_consistent_prefixes(self):
        tree = OlcBPlusTree(LeafEncoding.GAPPED, leaf_capacity=16)
        for key in range(0, 2000, 2):
            tree.insert(key, key)
        errors = []
        stop = threading.Event()

        def scanner():
            rng = random.Random(99)
            try:
                while not stop.is_set():
                    start = rng.randrange(0, 2000)
                    for key, value in tree.scan(start, 20):
                        assert key >= start
                        assert value == key
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer():
            for key in range(1, 2000, 4):
                tree.insert(key, key)

        scan_thread = threading.Thread(target=scanner)
        write_thread = threading.Thread(target=writer)
        scan_thread.start()
        write_thread.start()
        write_thread.join()
        stop.set()
        scan_thread.join()
        assert not errors

    def test_restart_counter_moves_under_contention(self):
        """A writer that finishes on the leaf between an operation's
        descent and its validation (a read) or its upgrade (a write)
        costs that operation exactly one restart."""
        operations = {
            "lookup": (lambda tree: tree.lookup(10), 10),
            "insert": (lambda tree: tree.insert(11, 11), True),
            "scan": (lambda tree: tree.scan(10, 40), [(k, k) for k in range(10, 90, 2)]),
        }
        for name, (operation, expected) in operations.items():
            tree = OlcBPlusTree.bulk_load(
                [(key, key) for key in range(0, 400, 2)], leaf_capacity=16
            )
            attempts = []

            def interfere(lock):
                if not attempts:
                    lock.write_lock()  # the interfering writer
                    lock.write_unlock()
                attempts.append(lock)

            if name == "lookup":
                # lookup descends inline: interfere inside its leaf read.
                leaf = tree.find_leaf(10)[0]
                leaf.storage = _InterferedStorage(leaf.storage, lambda: interfere(leaf.lock))
            elif name == "insert":
                # insert descends inline too: interfere in its leaf upgrade.
                tree.find_leaf(11)[0].lock = _InterferedLock(interfere)
            else:
                descend = tree._descend_locked

                def contended(key):
                    leaf, lock, version = descend(key)
                    interfere(lock)
                    return leaf, lock, version

                tree._descend_locked = contended
            assert operation(tree) == expected, name
            assert (tree.restarts, len(attempts)) == (1, 2), name


class _InterferedLock(VersionedLock):
    """A versioned lock whose ``upgrade`` runs ``interfere`` first."""

    def __init__(self, interfere):
        super().__init__()
        self._interfere = interfere

    def upgrade(self, version):
        self._interfere(self)
        super().upgrade(version)


class _InterferedStorage:
    """A leaf storage whose ``lookup`` runs ``interfere`` after reading."""

    def __init__(self, storage, interfere):
        self._storage = storage
        self._interfere = interfere
        self.visit_event = storage.visit_event

    def lookup(self, key):
        value = self._storage.lookup(key)
        self._interfere()
        return value


def leaf_states(tree):
    return {leaf: (_lock_of(leaf).version, leaf.to_pairs()) for leaf in tree.leaves()}


class TestSplitsLockEveryLeafTheyWrite:
    """After a split the key goes into whichever half covers it — often
    the new right leaf, which a reader reaches through the parent or a
    freshly published root.  Every leaf a splitting insert writes must
    come out with an advanced version, or a reader validates a torn read."""

    def assert_written_leaves_advanced(self, tree, key):
        before = leaf_states(tree)
        splits = tree.counters.get("leaf_split")
        assert tree.insert(key, key)
        assert tree.counters.get("leaf_split") == splits + 1
        written = []
        for leaf, (version, pairs) in leaf_states(tree).items():
            if leaf in before:
                old_version, old_pairs = before[leaf]
                changed = pairs != old_pairs
            else:  # the new half: built aside, then written only if it took the key
                old_version, changed = 0, key in dict(pairs)
            if changed:
                written.append(leaf)
                assert version > old_version, f"leaf {leaf.leaf_id} written unlocked"
        assert tree.find_leaf(key)[0] in written
        assert len(written) == (2 if tree.find_leaf(key)[0] not in before else 1)
        assert not any(_lock_of(node).locked for node in tree.inner_nodes())
        assert not any(_lock_of(leaf).locked for leaf in tree.leaves())
        tree.verify()

    @pytest.mark.parametrize("key", [50, 5])
    def test_root_leaf_split(self, key):
        tree = OlcBPlusTree(leaf_capacity=4)
        for loaded in (10, 20, 30, 40):
            tree.insert(loaded, loaded)
        self.assert_written_leaves_advanced(tree, key)
        assert tree.height == 2

    @pytest.mark.parametrize("key", [13, 1])
    def test_split_under_an_inner_node(self, key):
        tree = OlcBPlusTree.bulk_load(
            [(loaded, loaded) for loaded in range(0, 64, 2)],
            leaf_capacity=8,
            fill_factor=1.0,
        )
        assert tree.height == 2
        self.assert_written_leaves_advanced(tree, key)

    def test_route_racing_insert_child_restarts_instead_of_raising(self):
        """``InnerNode.insert_child`` grows ``keys`` before ``children``; a
        reader routing in between indexes one past the last child."""
        tree = OlcBPlusTree.bulk_load(
            [(key, key) for key in range(0, 400, 2)], leaf_capacity=16
        )
        root = tree.root
        assert isinstance(root, InnerNode)
        key = 398
        assert root.keys[-1] + 1 < key
        root.keys.append(root.keys[-1] + 1)  # torn: one key more than children
        stop = threading.Event()

        def repair():
            while not tree.restarts and not stop.is_set():
                time.sleep(0.001)
            lock = _lock_of(root)
            lock.write_lock()
            root.keys.pop()
            lock.write_unlock()

        repairer = threading.Thread(target=repair)
        repairer.start()
        try:
            assert tree.lookup(key) == key
        finally:
            stop.set()
            repairer.join(timeout=30)
        assert tree.restarts > 0
        tree.verify()


@pytest.mark.parametrize("encoding", list(LeafEncoding), ids=str)
@pytest.mark.parametrize("tree_class", [BPlusTree, OlcBPlusTree], ids=lambda c: c.__name__)
def test_modeled_counters_equal_the_parent_commit(tree_class, encoding):
    """The OLC read path reads counter names off the storage and slices
    scanned leaves; what the cost model prices must not move.  Values
    pinned from the commit before that change (seeded stream of
    lookups, inserts with splits, updates, deletes and scans)."""
    pairs = stream_pairs()
    tree = tree_class.bulk_load(pairs, encoding, leaf_capacity=64)
    seeded_stream(tree, pairs, seed=11)
    tree.verify()
    expected = {
        # The OLC descent counts no inner visits; only its split path does.
        "inner_visit": 10030 if tree_class is BPlusTree else 60,
        "leaf_split": 15,
        f"leaf_visit:{encoding}": 5130,
        f"leaf_write:{encoding}": 2215,
    }
    if encoding is LeafEncoding.SUCCINCT:
        expected["leaf_rebuild_entry"] = 102858
    assert tree.counters.snapshot() == expected
    sizes = {
        LeafEncoding.GAPPED: 64472,
        LeafEncoding.PACKED: 46888,
        LeafEncoding.SUCCINCT: 24540,
    }
    assert (tree.size_bytes(), len(tree)) == (sizes[encoding], 2805)


@pytest.mark.parametrize("encoding", list(LeafEncoding), ids=str)
def test_a_batch_that_raises_part_way_keeps_exact_accounting(encoding):
    """``insert_many`` gathers its counter events and size deltas and
    flushes them in ``finally``: a batch whose fifth key the tree cannot
    order raises after writing four pairs (the last of them splits its
    leaf), and the tree accounts for exactly those four."""
    pairs = [(key, key) for key in range(0, 1200, 2)]
    tree = OlcBPlusTree.bulk_load(pairs, encoding, leaf_capacity=8)
    twin = OlcBPlusTree.bulk_load(pairs, encoding, leaf_capacity=8)
    leaves_before = len(list(tree.leaves()))
    written = [(1, 10), (3, 30), (5, 50), (7, 70)]
    with pytest.raises(TypeError):
        tree.insert_many(written + [("9", 90), (11, 110)])
    for key, value in written:
        twin.insert(key, value)
    assert tree.counters.snapshot() == twin.counters.snapshot()
    assert len(tree) == len(twin) == 604
    assert tree.size_bytes() == twin.size_bytes()
    assert len(list(tree.leaves())) == leaves_before + 1
    assert [tree.lookup(key) for key, _ in written] == [10, 30, 50, 70]
    assert tree.lookup(11) is None
    assert all(leaf.lock is None or leaf.lock.version % 2 == 0 for leaf in tree.leaves())
    tree.verify()
