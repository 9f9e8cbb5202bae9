"""Concurrent sampling strategies: global vs thread-local (Section 3.1.5).

The paper compares two ways of collecting samples from many worker
threads:

* **GS (global sampling)** — all workers write into one shared map; the
  adaptation phase locks the whole map.  The paper's map is built for
  concurrent access; here it is a dict under one lock.
* **TLS (thread-local sampling)** — each worker aggregates into a private
  map; when the combined sample size is reached the maps are merged and
  one worker runs the adaptation while the rest keep sampling.

Python's GIL prevents true parallel speedups, but the *synchronization
structure* — where locks sit and who blocks whom — is implemented for
real with :mod:`threading` primitives, and the contention counters these
classes export are what the Figure 18 reproduction charges through the
cost model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Hashable

from repro.core.access import AccessStats, AccessType


@dataclass
class ContentionCounters:
    """Synchronization events the cost model converts into stall time."""

    lock_acquisitions: int = 0
    blocked_acquisitions: int = 0  # lock was already held by someone else
    global_phase_locks: int = 0    # whole-map locks during adaptation
    merges: int = 0                # thread-local map merges


class SamplingStrategy:
    """Common interface of the two concurrent sample stores."""

    def record(self, identifier: Hashable, access_type: AccessType, epoch: int) -> None:
        """Register one sampled access."""
        raise NotImplementedError

    def drain(self) -> Dict[Hashable, AccessStats]:
        """Return (and clear) the aggregated samples for an adaptation phase."""
        raise NotImplementedError

    def sampled_count(self) -> int:
        """Sampled accesses recorded since the last drain."""
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Modeled bytes of the sampling store."""
        raise NotImplementedError


class GlobalSampling(SamplingStrategy):
    """GS: one shared map, one lock, whole-map locking during adaptation."""

    def __init__(self) -> None:
        self._map: Dict[Hashable, AccessStats] = {}
        self._lock = threading.Lock()
        self._count = 0
        self.counters = ContentionCounters()

    def record(self, identifier: Hashable, access_type: AccessType, epoch: int) -> None:
        """Register one sampled access."""
        acquired = self._lock.acquire(blocking=False)
        if not acquired:
            self.counters.blocked_acquisitions += 1
            self._lock.acquire()
        self.counters.lock_acquisitions += 1
        try:
            stats = self._map.get(identifier)
            if stats is None:
                stats = AccessStats()
                self._map[identifier] = stats
            stats.record(access_type, epoch)
            self._count += 1
        finally:
            self._lock.release()

    def drain(self) -> Dict[Hashable, AccessStats]:
        """Return and clear the aggregated samples."""
        with self._lock:  # the paper: map locked globally for the phase
            self.counters.global_phase_locks += 1
            snapshot = self._map
            self._map = {}
            self._count = 0
            return snapshot

    def sampled_count(self) -> int:
        """Sampled accesses recorded since the last drain."""
        return self._count

    def memory_bytes(self) -> int:
        """Modeled bytes of the sampling store."""
        per_entry = 8 + 8 + AccessStats().size_bytes()
        return len(self._map) * per_entry


class _ThreadStore:
    """One worker thread's private sample map."""

    __slots__ = ("map", "count")

    def __init__(self) -> None:
        self.map: Dict[Hashable, AccessStats] = {}
        self.count = 0


class ThreadLocalSampling(SamplingStrategy):
    """TLS: per-thread maps merged at phase end.

    Recording is lock-free on the hot path (each thread writes only its
    own store); the strategy lock is taken once per thread to register the
    store and once per phase to merge.  Registration publishes a new store
    dict rather than growing the old one, so a reader iterating the dict it
    read never sees it change size.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stores: Dict[int, _ThreadStore] = {}
        self.counters = ContentionCounters()

    def _store(self) -> _ThreadStore:
        thread_id = threading.get_ident()
        store = self._stores.get(thread_id)
        if store is None:
            store = _ThreadStore()
            with self._lock:
                self.counters.lock_acquisitions += 1
                self._stores = {**self._stores, thread_id: store}
        return store

    def record(self, identifier: Hashable, access_type: AccessType, epoch: int) -> None:
        """Register one sampled access."""
        store = self._store()
        stats = store.map.get(identifier)
        if stats is None:
            stats = AccessStats()
            store.map[identifier] = stats
        stats.record(access_type, epoch)
        store.count += 1

    def drain(self) -> Dict[Hashable, AccessStats]:
        """Return and clear the aggregated samples."""
        with self._lock:
            self.counters.merges += 1
            merged: Dict[Hashable, AccessStats] = {}
            for store in self._stores.values():
                for identifier, stats in store.map.items():
                    existing = merged.get(identifier)
                    if existing is None:
                        merged[identifier] = stats
                    else:
                        existing.reads += stats.reads
                        existing.writes += stats.writes
                        existing.last_epoch = max(existing.last_epoch, stats.last_epoch)
                store.map = {}
                store.count = 0
            return merged

    def sampled_count(self) -> int:
        """Sampled accesses recorded since the last drain."""
        return sum(store.count for store in self._stores.values())

    def memory_bytes(self) -> int:
        """Modeled bytes of the sampling store."""
        per_entry = 8 + 8 + AccessStats().size_bytes()
        total_entries = sum(len(store.map) for store in self._stores.values())
        # Each thread-local map carries its own bucket array, which is why
        # the paper reports up to 10x more sampling memory for TLS.
        overhead_per_map = 64 * 8
        return total_entries * per_entry + len(self._stores) * overhead_per_map


class ConcurrentSampler:
    """Skip-length sampling shared by worker threads.

    Each thread keeps a private countdown (no synchronization on the hot
    path) and reloads it from the shared skip length when the countdown
    expires — the scheme of Listing 1, lines 8-13.
    """

    def __init__(self, skip_length: int = 50) -> None:
        if skip_length < 0:
            raise ValueError(f"skip length must be >= 0, got {skip_length}")
        self.skip_length = skip_length
        self._local = threading.local()

    def is_sample(self) -> bool:
        """True when the current access should be sampled."""
        countdown = getattr(self._local, "countdown", None)
        if countdown is None:
            countdown = self.skip_length  # thread's first access
        if countdown == 0:
            self._local.countdown = self.skip_length
            return True
        self._local.countdown = countdown - 1
        return False

    def set_skip_length(self, skip_length: int) -> None:
        """Install a new skip length."""
        if skip_length < 0:
            raise ValueError(f"skip length must be >= 0, got {skip_length}")
        self.skip_length = skip_length
