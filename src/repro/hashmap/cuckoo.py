"""Concurrent cuckoo hash map (after Li et al., EuroSys 2014).

Two-choice cuckoo hashing with 4-slot buckets: every key lives in one of
two buckets determined by two hash functions.  Inserts displace residents
along a BFS-discovered cuckoo path when both buckets are full.  Striped
locks guard bucket groups so concurrent readers and writers proceed on
disjoint stripes — the structure the paper uses for the shared (GS)
sample store.

Python's GIL serializes the bytecode, but the locking protocol is real:
operations take the stripe locks of both candidate buckets in address
order (no deadlocks), and the contention counters feed Figure 18's cost
model.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Hashable, Iterator, List, Tuple

_SLOTS_PER_BUCKET = 4
_MAX_BFS_DEPTH = 5
_LOCK_STRIPES = 16
_EMPTY = object()


def _mix(value: int, seed: int) -> int:
    value ^= seed
    value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    return value


class _Bucket:
    __slots__ = ("keys", "values")

    def __init__(self) -> None:
        self.keys: List[object] = [_EMPTY] * _SLOTS_PER_BUCKET
        self.values: List[object] = [None] * _SLOTS_PER_BUCKET

    def find(self, key: Hashable) -> int:
        """Slot index of ``key`` within this bucket, or -1."""
        for slot in range(_SLOTS_PER_BUCKET):
            if self.keys[slot] is not _EMPTY and self.keys[slot] == key:
                return slot
        return -1

    def free_slot(self) -> int:
        """Index of a free slot, or -1 when the bucket is full."""
        for slot in range(_SLOTS_PER_BUCKET):
            if self.keys[slot] is _EMPTY:
                return slot
        return -1


class CuckooMap:
    """A thread-safe dict-like map with two-choice cuckoo hashing."""

    def __init__(self, initial_buckets: int = 64) -> None:
        buckets = max(8, initial_buckets)
        self._num_buckets = 1 << (buckets - 1).bit_length()
        self._buckets: List[_Bucket] = [_Bucket() for _ in range(self._num_buckets)]
        self._stripes = [threading.Lock() for _ in range(_LOCK_STRIPES)]
        self._resize_lock = threading.Lock()
        self._size_lock = threading.Lock()  # += is not atomic across stripes
        self._size = 0
        self.resizes = 0
        self.lock_acquisitions = 0
        self.blocked_acquisitions = 0

    # ------------------------------------------------------------------
    # Hashing and locking
    # ------------------------------------------------------------------
    def _bucket_indexes(self, key: Hashable) -> Tuple[int, int]:
        base = hash(key) & 0xFFFFFFFFFFFFFFFF
        first = _mix(base, 0x9E3779B97F4A7C15) % self._num_buckets
        second = _mix(base, 0xC2B2AE3D27D4EB4F) % self._num_buckets
        if second == first:
            second = (first + 1) % self._num_buckets
        return first, second

    def _acquire(self, *bucket_indexes: int):
        stripes = sorted({index % len(self._stripes) for index in bucket_indexes})
        acquired = []
        for stripe in stripes:
            lock = self._stripes[stripe]
            if not lock.acquire(blocking=False):
                self.blocked_acquisitions += 1
                lock.acquire()
            self.lock_acquisitions += 1
            acquired.append(lock)
        return acquired

    @staticmethod
    def _release(locks) -> None:
        for lock in reversed(locks):
            lock.release()

    def _acquire_all_stripes(self):
        """Block every fast-path operation (displacements, resizes)."""
        for lock in self._stripes:
            lock.acquire()
        return list(self._stripes)

    def _bump_size(self, delta: int) -> None:
        with self._size_lock:
            self._size += delta

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default=None):
        """Return the value for ``key``, or ``default`` when absent."""
        first, second = self._bucket_indexes(key)
        locks = self._acquire(first, second)
        try:
            for index in (first, second):
                slot = self._buckets[index].find(key)
                if slot >= 0:
                    return self._buckets[index].values[slot]
            return default
        finally:
            self._release(locks)

    def __getitem__(self, key: Hashable):
        sentinel = _EMPTY
        value = self.get(key, sentinel)
        if value is sentinel:
            raise KeyError(key)
        return value

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key, _EMPTY) is not _EMPTY

    def __len__(self) -> int:
        return self._size

    def __setitem__(self, key: Hashable, value: object) -> None:
        while True:
            if self._try_set(key, value):
                return
            self._grow()

    def _try_set(
        self,
        key: Hashable,
        value: object,
        resize_locked: bool = False,
        stripes_held: bool = False,
    ) -> bool:
        first, second = self._bucket_indexes(key)
        locks = [] if stripes_held else self._acquire(first, second)
        try:
            for index in (first, second):
                slot = self._buckets[index].find(key)
                if slot >= 0:
                    self._buckets[index].values[slot] = value
                    return True
            for index in (first, second):
                slot = self._buckets[index].free_slot()
                if slot >= 0:
                    self._buckets[index].keys[slot] = key
                    self._buckets[index].values[slot] = value
                    self._bump_size(1)
                    return True
        finally:
            self._release(locks)
        # Both buckets full: displace along a BFS cuckoo path.  The
        # displacement mutates buckets other operations may be touching,
        # so the rare path stops the world: resize lock + every stripe.
        if stripes_held:
            # All stripes already held by our caller (resize/displace).
            return self._displace_and_retry(key, value, first, second)
        if resize_locked:
            all_stripes = self._acquire_all_stripes()
            try:
                return self._displace_and_retry(key, value, first, second)
            finally:
                self._release(all_stripes)
        with self._resize_lock:
            all_stripes = self._acquire_all_stripes()
            try:
                return self._displace_and_retry(key, value, first, second)
            finally:
                self._release(all_stripes)

    def _displace_and_retry(
        self, key: Hashable, value: object, first: int, second: int
    ) -> bool:
        """Caller holds the resize lock and every stripe."""
        path = self._find_cuckoo_path(first, second)
        if path is None:
            return False
        self._apply_cuckoo_path(path)
        return self._try_set(key, value, resize_locked=True, stripes_held=True)

    def _find_cuckoo_path(self, first: int, second: int):
        """BFS for a chain of displacements ending at a free slot.

        Returns a list of (bucket, slot) hops from the bucket to vacate
        down to a bucket with a free slot.
        """
        queue = deque([(first, [])] if first == second else [(first, []), (second, [])])
        visited = {first, second}
        while queue:
            bucket_index, path = queue.popleft()
            if len(path) > _MAX_BFS_DEPTH:
                continue
            bucket = self._buckets[bucket_index]
            free = bucket.free_slot()
            if free >= 0:
                return path + [(bucket_index, free)]
            for slot in range(_SLOTS_PER_BUCKET):
                key = bucket.keys[slot]
                a, b = self._bucket_indexes(key)
                alternate = b if a == bucket_index else a
                if alternate not in visited:
                    visited.add(alternate)
                    queue.append((alternate, path + [(bucket_index, slot)]))
        return None

    def _apply_cuckoo_path(self, path) -> None:
        """Shift keys backwards along the path, freeing its first slot."""
        for position in range(len(path) - 1, 0, -1):
            to_bucket, to_slot = path[position]
            from_bucket, from_slot = path[position - 1]
            key = self._buckets[from_bucket].keys[from_slot]
            value = self._buckets[from_bucket].values[from_slot]
            self._buckets[to_bucket].keys[to_slot] = key
            self._buckets[to_bucket].values[to_slot] = value
            self._buckets[from_bucket].keys[from_slot] = _EMPTY
            self._buckets[from_bucket].values[from_slot] = None

    def __delitem__(self, key: Hashable) -> None:
        first, second = self._bucket_indexes(key)
        locks = self._acquire(first, second)
        try:
            for index in (first, second):
                slot = self._buckets[index].find(key)
                if slot >= 0:
                    self._buckets[index].keys[slot] = _EMPTY
                    self._buckets[index].values[slot] = None
                    self._bump_size(-1)
                    return
            raise KeyError(key)
        finally:
            self._release(locks)

    def pop(self, key: Hashable, default=_EMPTY):
        """Remove ``key`` and return its value (or ``default``)."""
        try:
            value = self[key]
        except KeyError:
            if default is _EMPTY:
                raise
            return default
        del self[key]
        return value

    def items(self) -> Iterator[Tuple[Hashable, object]]:
        """Yield all ``(key, value)`` pairs in key order."""
        for bucket in self._buckets:
            for slot in range(_SLOTS_PER_BUCKET):
                if bucket.keys[slot] is not _EMPTY:
                    yield bucket.keys[slot], bucket.values[slot]

    def keys(self) -> Iterator[Hashable]:
        """Yield all keys."""
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator[object]:
        """Yield all values."""
        for _, value in self.items():
            yield value

    def clear(self) -> None:
        """Remove every entry."""
        with self._resize_lock:
            all_stripes = self._acquire_all_stripes()
            try:
                self._buckets = [_Bucket() for _ in range(self._num_buckets)]
                self._size = 0
            finally:
                self._release(all_stripes)

    # ------------------------------------------------------------------
    # Resizing
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        with self._resize_lock:
            all_stripes = self._acquire_all_stripes()
            try:
                entries = [
                    (bucket.keys[slot], bucket.values[slot])
                    for bucket in self._buckets
                    for slot in range(_SLOTS_PER_BUCKET)
                    if bucket.keys[slot] is not _EMPTY
                ]
                self._num_buckets *= 2
                self._buckets = [_Bucket() for _ in range(self._num_buckets)]
                self._size = 0
                self.resizes += 1
                for key, value in entries:
                    if not self._try_set(
                        key, value, resize_locked=True, stripes_held=True
                    ):  # pragma: no cover
                        raise AssertionError("re-insert failed right after resize")
            finally:
                self._release(all_stripes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        """Number of hash buckets."""
        return self._num_buckets

    def load_factor(self) -> float:
        """Occupied fraction of the structure's capacity."""
        return self._size / (self._num_buckets * _SLOTS_PER_BUCKET)

    def check_invariants(self) -> None:
        """Every key sits in one of its two candidate buckets."""
        counted = 0
        for bucket_index, bucket in enumerate(self._buckets):
            for slot in range(_SLOTS_PER_BUCKET):
                key = bucket.keys[slot]
                if key is _EMPTY:
                    continue
                first, second = self._bucket_indexes(key)
                assert bucket_index in (first, second), (
                    f"key {key!r} in bucket {bucket_index}, candidates {first}/{second}"
                )
                counted += 1
        assert counted == self._size
