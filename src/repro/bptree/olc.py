"""Optimistic Lock Coupling for the Hybrid B+-tree (Section 4.1.5).

The paper synchronizes its Hybrid B+-tree with OLC as described by Leis
et al. (DaMoN 2016): every node carries a lock and a version counter;
readers descend without acquiring locks, remembering the version of each
node they pass and *validating* it after reading — a version change means
a writer interfered and the operation restarts.  Writers upgrade to the
real lock and bump the version on release.  Compared to classic lock
coupling this acquires no locks at all on the read path.

Python's GIL serializes bytecode, so this port cannot demonstrate
parallel speedup — but the protocol is implemented fully (versioned
locks, validation, restart loops, write upgrades) and its correctness
under concurrent readers/writers is what the tests exercise.

Structure-modifying operations (splits) are serialized by a tree-level
lock while still version-bumping every node they touch, a simplification
the original paper also permits for rare restructures.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence, Tuple

from repro.bptree.inner import InnerNode
from repro.bptree.leaves import (
    DEFAULT_LEAF_CAPACITY,
    INSERTED,
    LeafEncoding,
    LeafNode,
)
from repro.bptree.tree import DEFAULT_INNER_FANOUT, BPlusTree
from repro.obs.runtime import active_tracer

_MAX_RESTARTS = 10_000


class OlcRestart(Exception):
    """Internal signal: version validation failed, retry from the root."""


class VersionedLock:
    """A lock with a version counter (the OLC primitive).

    The version is even when unlocked and odd while a writer holds the
    lock; every write releases with ``version + 2`` so readers can detect
    interference by comparing versions.
    """

    __slots__ = ("_lock", "_version")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version = 0

    def read_version(self) -> int:
        """The version to validate against later; restarts while locked."""
        version = self._version
        if version & 1:
            raise OlcRestart()
        return version

    def validate(self, version: int) -> None:
        """Raise :class:`OlcRestart` if a writer interfered since
        ``version`` was read."""
        if self._version != version:
            raise OlcRestart()

    def upgrade(self, version: int) -> None:
        """Atomically move from an optimistic read to a write lock."""
        if not self._lock.acquire(blocking=False):
            raise OlcRestart()
        if self._version != version:
            self._lock.release()
            raise OlcRestart()
        self._version += 1  # odd: locked

    def write_lock(self) -> None:
        """Blocking write acquisition (structure modifications)."""
        self._lock.acquire()
        self._version += 1

    def write_unlock(self) -> None:
        """Release the write lock, bumping the version."""
        self._version += 1  # even again, but changed
        self._lock.release()

    @property
    def version(self) -> int:
        """The current version counter value."""
        return self._version

    @property
    def locked(self) -> bool:
        """True while a writer holds the lock."""
        return bool(self._version & 1)


_lock_creation_guard = threading.Lock()


def _lock_of(node) -> VersionedLock:
    """The node's versioned lock, created on first use.

    Creation is double-checked under a global guard: without it two
    threads could each attach a *different* lock to the same node and
    both believe they hold it exclusively.
    """
    lock = node.lock
    if lock is None:
        with _lock_creation_guard:
            lock = node.lock
            if lock is None:
                lock = VersionedLock()
                node.lock = lock
    return lock


class OlcBPlusTree(BPlusTree):
    """A B+-tree whose point operations use Optimistic Lock Coupling."""

    def __init__(
        self,
        leaf_encoding: LeafEncoding = LeafEncoding.GAPPED,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        inner_fanout: int = DEFAULT_INNER_FANOUT,
    ) -> None:
        super().__init__(leaf_encoding, leaf_capacity, inner_fanout)
        self._structure_lock = threading.Lock()
        # Tree-level aggregates (key count, size accounting) are shared
        # across leaves; += is not atomic in Python, so they get their
        # own tiny lock.
        self._meta_lock = threading.Lock()
        self.restarts = 0

    def _adjust_meta(self, key_delta: int, byte_delta: int) -> None:
        with self._meta_lock:
            self._num_keys += key_delta
            self._leaf_bytes += byte_delta

    # ------------------------------------------------------------------
    # OLC traversal
    # ------------------------------------------------------------------
    def _olc_descend(self, key: int) -> Tuple[LeafNode, int]:
        """Optimistic descent: returns (leaf, leaf_version)."""
        node = self._root
        version = _lock_of(node).read_version()
        if node is not self._root:
            # The root was swapped by a concurrent split after we read it.
            raise OlcRestart()
        while isinstance(node, InnerNode):
            child = node.route(key)
            # Validate after reading the routing decision: if a writer
            # changed this node meanwhile, the child may be wrong.
            lock = _lock_of(node)
            lock.validate(version)
            child_version = _lock_of(child).read_version()
            # The canonical OLC double validation: the parent must still
            # be unchanged *after* the child's version was read, or a
            # split may have moved our key range between the two reads.
            lock.validate(version)
            node, version = child, child_version
        return node, version

    def _with_restarts(self, operation):
        for attempt in range(_MAX_RESTARTS):
            try:
                return operation()
            except OlcRestart:
                self.restarts += 1
                # Backoff: yield the GIL so the conflicting writer can
                # finish; pure spinning livelocks under heavy contention.
                if attempt > 4:
                    time.sleep(0 if attempt < 64 else 0.0001)
                continue
        raise RuntimeError("OLC operation restarted too often")  # pragma: no cover

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None."""
        tracer = active_tracer()
        span = (
            tracer.op_start("lookup", family=self.stats_family)
            if tracer is not None
            else None
        )

        def run() -> Tuple[LeafNode, Optional[int]]:
            leaf, version = self._olc_descend(key)
            self.counters.add(f"leaf_visit:{leaf.encoding}")
            try:
                value = leaf.lookup(key)
            except IndexError:
                # A concurrent writer shifted the storage under us.
                raise OlcRestart() from None
            _lock_of(leaf).validate(version)
            return leaf, value

        leaf, value = self._with_restarts(run)
        if span is not None:
            self._end_lookup_span(tracer, span, leaf, value)
        return value

    def lookup_many(self, keys: Sequence[int]) -> List[Optional[int]]:
        """One validated :meth:`lookup` per key: the base tree's cached
        leaf run would read a leaf without the version protocol."""
        return [self.lookup(key) for key in keys]

    def insert(self, key: int, value: int) -> bool:
        """Insert ``key``; returns False when the key already existed."""
        def run() -> bool:
            leaf, version = self._olc_descend(key)
            lock = _lock_of(leaf)
            lock.upgrade(version)
            try:
                if leaf.num_entries() < leaf.capacity or leaf.lookup(key) is not None:
                    self.counters.add(f"leaf_visit:{leaf.encoding}")
                    self._count_leaf_write(leaf)
                    before = leaf.size_bytes()
                    outcome = leaf.insert(key, value)
                    assert outcome, "leaf had room but refused the insert"
                    new = outcome == INSERTED
                    self._adjust_meta(int(new), leaf.size_bytes() - before)
                    return new
            finally:
                lock.write_unlock()
            # Leaf full: fall back to the serialized split path.
            return self._insert_with_split(key, value)

        return self._with_restarts(run)

    def insert_many(self, pairs: Sequence[Tuple[int, int]]) -> List[bool]:
        """One version-locked :meth:`insert` per pair: the base tree's
        sorted-batch path would write and split leaves with no lock held."""
        return [self.insert(key, value) for key, value in pairs]

    def _insert_with_split(self, key: int, value: int) -> bool:
        with self._structure_lock:
            leaf, path = self._descend(key)
            locks = [_lock_of(node) for node, _ in path] + [_lock_of(leaf)]
            for lock in locks:
                lock.write_lock()
            try:
                self.counters.add(f"leaf_visit:{leaf.encoding}")
                self._count_leaf_write(leaf)
                target = leaf
                before = target.size_bytes()
                outcome = target.insert(key, value)
                if not outcome:  # full, nothing written
                    with self._meta_lock:
                        # The base split adjusts _leaf_bytes directly;
                        # holding the meta lock keeps that exchange atomic
                        # against concurrent fast-path inserts.
                        self._split_leaf(leaf, path)
                    target, _ = self._descend(key)
                    before = target.size_bytes()
                    outcome = target.insert(key, value)
                    if not outcome:  # pragma: no cover - split guarantees room
                        raise AssertionError("leaf still full after split")
                new = outcome == INSERTED
                self._adjust_meta(int(new), target.size_bytes() - before)
                return new
            finally:
                for lock in reversed(locks):
                    lock.write_unlock()

    def update(self, key: int, value: int) -> bool:
        """Overwrite the value of an existing ``key``; False if absent."""
        def run() -> bool:
            leaf, version = self._olc_descend(key)
            lock = _lock_of(leaf)
            lock.upgrade(version)
            try:
                self.counters.add(f"leaf_visit:{leaf.encoding}")
                self._count_leaf_write(leaf)
                before = leaf.size_bytes()
                updated = leaf.update(key, value)
                self._adjust_meta(0, leaf.size_bytes() - before)
                return updated
            finally:
                lock.write_unlock()

        return self._with_restarts(run)

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False when it was absent."""
        def run() -> bool:
            leaf, version = self._olc_descend(key)
            lock = _lock_of(leaf)
            lock.upgrade(version)
            try:
                self.counters.add(f"leaf_visit:{leaf.encoding}")
                self._count_leaf_write(leaf)
                before = leaf.size_bytes()
                removed = leaf.delete(key)
                self._adjust_meta(-1 if removed else 0, leaf.size_bytes() - before)
                return removed
            finally:
                lock.write_unlock()

        return self._with_restarts(run)

    def scan(self, start_key: int, count: int) -> List[Tuple[int, int]]:
        """OLC range scan: validates every visited leaf, restarts on
        interference."""
        if count <= 0:
            return []

        def run() -> List[Tuple[int, int]]:
            leaf, version = self._olc_descend(start_key)
            result: List[Tuple[int, int]] = []
            current: Optional[LeafNode] = leaf
            current_version = version
            first = True
            while current is not None and len(result) < count:
                self.counters.add(f"leaf_visit:{current.encoding}")
                try:
                    entries = (
                        current.entries_from(start_key)
                        if first
                        else current.entries_from(0)
                    )
                    taken = []
                    for pair in entries:
                        taken.append(pair)
                        if len(result) + len(taken) >= count:
                            break
                except IndexError:
                    # A concurrent writer shifted the storage under us.
                    raise OlcRestart() from None
                next_leaf = current.next_leaf
                _lock_of(current).validate(current_version)
                result.extend(taken)
                first = False
                current = next_leaf
                if current is not None:
                    current_version = _lock_of(current).read_version()
            return result

        return self._with_restarts(run)
