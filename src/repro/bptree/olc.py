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
under concurrent readers/writers is what the tests exercise.  A read
costs what the protocol says it should: one validated descent is a
single frame of plain attribute reads and ``bisect`` calls, and an
operation that does not restart builds no closure.  So does a write: an
insert is that descent, one lock upgrade and one leaf write, and a
batch flushes its size deltas once.  Lookups, inserts and scans charge
the cost model's leaf events in place (``counters.counts``), not
through a call per event.

Structure-modifying operations (splits) are serialized by a tree-level
lock while still version-bumping every node they touch, a simplification
the original paper also permits for rare restructures.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.bptree.inner import InnerNode
from repro.bptree.leaves import (
    DEFAULT_LEAF_CAPACITY,
    INSERTED,
    LeafEncoding,
    LeafNode,
)
from repro.bptree.tree import DEFAULT_INNER_FANOUT, BPlusTree
from repro.obs import runtime as _obs_runtime

_MAX_RESTARTS = 10_000


class OlcRestart(Exception):
    """Internal signal: version validation failed, retry from the root."""


class VersionedLock:
    """A lock with a version counter (the OLC primitive).

    The version is even when unlocked and odd while a writer holds the
    lock; every write releases with ``version + 2`` so readers can detect
    interference by comparing versions.  Readers use :attr:`version`
    directly: an odd value means restart, and a value that differs from
    the one read before means a writer interfered.  Writers take the lock
    through :meth:`upgrade`, splits through :meth:`write_lock`.
    """

    __slots__ = ("_lock", "version")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.version = 0

    def upgrade(self, version: int) -> None:
        """Atomically move from an optimistic read to a write lock."""
        if not self._lock.acquire(blocking=False):
            raise OlcRestart()
        if self.version != version:
            self._lock.release()
            raise OlcRestart()
        self.version += 1  # odd: locked

    def write_lock(self) -> None:
        """Blocking write acquisition (structure modifications)."""
        self._lock.acquire()
        self.version += 1

    def write_unlock(self) -> None:
        """Release the write lock, bumping the version."""
        self.version += 1  # even again, but changed
        self._lock.release()

    @property
    def locked(self) -> bool:
        """True while a writer holds the lock."""
        return bool(self.version & 1)


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
    def _descend_locked(self, key: int) -> Tuple[LeafNode, VersionedLock, int]:
        """Optimistic descent: ``(leaf, leaf lock, leaf version)``.

        Per level: read the child under a parent version, validate the
        parent, read the child's version, validate the parent again — the
        canonical OLC double validation: the parent must still be
        unchanged *after* the child's version was read, or a split may
        have moved our key range between the two reads.  An odd version
        (a writer holds the node) or a root swapped by a concurrent split
        restarts; so does an ``IndexError``, which a route racing
        ``InnerNode.insert_child`` (keys grown, children not yet) raises.
        :meth:`update`, :meth:`delete` and :meth:`scan` descend here;
        :meth:`lookup` and :meth:`insert_many` run the same steps inline.
        """
        node = self._root
        lock = node.lock or _lock_of(node)
        version = lock.version
        if version & 1 or node is not self._root:
            raise OlcRestart()
        try:
            while isinstance(node, InnerNode):
                child = node.children[bisect_right(node.keys, key)]
                if lock.version != version:
                    raise OlcRestart()
                child_lock = child.lock or _lock_of(child)
                child_version = child_lock.version
                if child_version & 1 or lock.version != version:
                    raise OlcRestart()
                node, lock, version = child, child_lock, child_version
        except IndexError:
            raise OlcRestart() from None
        return node, lock, version

    def _restarted(self, attempt: int) -> int:
        """Count the restart of an operation's ``attempt``-th try, back
        off, and return the next attempt's number.  Backoff yields the GIL
        so the conflicting writer can finish; pure spinning livelocks
        under heavy contention."""
        self.restarts += 1
        if attempt > 4:
            if attempt >= _MAX_RESTARTS:  # pragma: no cover
                raise RuntimeError("OLC operation restarted too often")
            time.sleep(0 if attempt < 64 else 0.0001)
        return attempt + 1

    def _write_locked_leaf(self, key: int) -> Tuple[LeafNode, VersionedLock]:
        """The leaf for ``key`` with its version lock upgraded to a write
        lock (restarting until the upgrade succeeds)."""
        attempt = 0
        while True:
            try:
                leaf, lock, version = self._descend_locked(key)
                lock.upgrade(version)
                return leaf, lock
            except OlcRestart:
                attempt = self._restarted(attempt)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or None.

        The descent is :meth:`_descend_locked`'s, with the same double
        validation and restart causes, inlined so that the per-key read
        a routed batch makes costs one frame besides the leaf's own: the
        installed tracer is read straight off the telemetry switchboard
        and the leaf visit is charged in place, neither through a call."""
        telemetry = _obs_runtime._ACTIVE
        tracer = telemetry.tracer if telemetry is not None else None
        span = (
            tracer.op_start("lookup", family=self.stats_family)
            if tracer is not None
            else None
        )
        attempt = 0
        while True:
            try:
                node = self._root
                lock = node.lock or _lock_of(node)
                version = lock.version
                if version & 1 or node is not self._root:
                    raise OlcRestart()
                while isinstance(node, InnerNode):
                    child = node.children[bisect_right(node.keys, key)]
                    if lock.version != version:
                        raise OlcRestart()
                    child_lock = child.lock or _lock_of(child)
                    child_version = child_lock.version
                    if child_version & 1 or lock.version != version:
                        raise OlcRestart()
                    node, lock, version = child, child_lock, child_version
                storage = node.storage
                self.counters.counts[storage.visit_event] += 1
                value = storage.lookup(key)
                if lock.version == version:
                    break
            except (OlcRestart, IndexError):
                pass  # IndexError: a route or a leaf shifted under the read
            attempt = self._restarted(attempt)
        if span is not None:
            self._end_lookup_span(tracer, span, node, value)
        return value

    def insert(self, key: int, value: int) -> bool:
        """Insert ``key``; returns False when the key already existed."""
        return self.insert_many(((key, value),))[0]

    def insert_many(self, pairs: Sequence[Tuple[int, int]]) -> List[bool]:
        """Insert each pair; True where its key was new.

        Per pair: :meth:`lookup`'s validated descent, in this frame, one
        leaf lock upgrade and one storage ``insert``, which refuses a full
        leaf without writing (that pair takes the serialized split path).
        Each written pair charges its counter events in place, as it
        lands; size deltas are flushed once, in ``finally``, so a batch
        that raises part-way accounts for what it wrote."""
        results: List[bool] = []
        counts = self.counters.counts
        new_keys = grown = 0
        try:
            for key, value in pairs:
                attempt = 0
                while True:
                    try:
                        node = self._root
                        lock = node.lock or _lock_of(node)
                        version = lock.version
                        if version & 1 or node is not self._root:
                            raise OlcRestart()
                        while isinstance(node, InnerNode):
                            child = node.children[bisect_right(node.keys, key)]
                            if lock.version != version:
                                raise OlcRestart()
                            child_lock = child.lock or _lock_of(child)
                            child_version = child_lock.version
                            if child_version & 1 or lock.version != version:
                                raise OlcRestart()
                            node, lock, version = child, child_lock, child_version
                        lock.upgrade(version)
                        break
                    except (OlcRestart, IndexError):
                        pass  # IndexError: a route shifted under the descent
                    attempt = self._restarted(attempt)
                try:
                    storage = node.storage
                    succinct = storage.encoding is LeafEncoding.SUCCINCT
                    entries = storage.num_entries() if succinct else 0
                    before = storage.size_bytes()
                    outcome = storage.insert(key, value)
                    if outcome:
                        grown += storage.size_bytes() - before
                finally:
                    lock.write_unlock()
                if not outcome:  # leaf full, nothing written
                    results.append(self._insert_with_split(key, value))
                    continue
                # As _count_leaf_write prices it (entries held before the write).
                counts[storage.visit_event] += 1
                counts[storage.write_event] += 1
                if succinct:
                    counts["leaf_rebuild_entry"] += entries
                new = outcome == INSERTED
                new_keys += new
                results.append(new)
        finally:
            if new_keys or grown:
                self._adjust_meta(new_keys, grown)
        return results

    def _insert_with_split(self, key: int, value: int) -> bool:
        """Insert under the structure lock, write-locking the path, the
        full leaf and — after the split — the leaf that takes the key,
        which is often the new right half: a root split publishes a new
        root no writer holds, through which a reader reaches that leaf."""
        with self._structure_lock:
            leaf, path = self._descend(key)
            locks = [_lock_of(node) for node, _ in path] + [_lock_of(leaf)]
            for lock in locks:
                lock.write_lock()
            try:
                self.counters.counts[leaf.storage.visit_event] += 1
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
                    if target is not leaf:
                        target_lock = _lock_of(target)
                        target_lock.write_lock()
                        locks.append(target_lock)
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
        leaf, lock = self._write_locked_leaf(key)
        try:
            storage = leaf.storage
            self.counters.counts[storage.visit_event] += 1
            self._count_leaf_write(leaf)
            before = storage.size_bytes()
            updated = storage.update(key, value)
            self._adjust_meta(0, storage.size_bytes() - before)
            return updated
        finally:
            lock.write_unlock()

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False when it was absent."""
        leaf, lock = self._write_locked_leaf(key)
        try:
            storage = leaf.storage
            self.counters.counts[storage.visit_event] += 1
            self._count_leaf_write(leaf)
            before = storage.size_bytes()
            removed = storage.delete(key)
            self._adjust_meta(-1 if removed else 0, storage.size_bytes() - before)
            return removed
        finally:
            lock.write_unlock()

    def scan(self, start_key: int, count: int) -> List[Tuple[int, int]]:
        """OLC range scan: one slice per visited leaf, each validated
        against the leaf's version; any interference restarts the scan.

        Every leaf is sliced from ``start_key`` (the ones after the first
        hold only larger keys, so that takes them whole)."""
        if count <= 0:
            return []
        attempt = 0
        while True:
            try:
                leaf, lock, version = self._descend_locked(start_key)
                result: List[Tuple[int, int]] = []
                counts = self.counters.counts
                while True:
                    storage = leaf.storage
                    counts[storage.visit_event] += 1
                    taken = storage.pairs_from(start_key, count - len(result))
                    next_leaf = leaf.next_leaf
                    if lock.version != version:
                        raise OlcRestart()
                    result += taken
                    if next_leaf is None or len(result) >= count:
                        return result
                    leaf = next_leaf
                    lock = leaf.lock or _lock_of(leaf)
                    version = lock.version
                    if version & 1:
                        raise OlcRestart()
            except (OlcRestart, IndexError):
                pass  # IndexError: a writer shifted the storage under the read
            attempt = self._restarted(attempt)
