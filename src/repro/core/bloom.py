"""Bloom filter guarding the sample hash map.

The paper installs a Bloom filter in front of the aggregate map so that a
unit enters the (more expensive) hash map only on its *second* sampled
access within a phase: the first access merely sets the filter bits.  This
keeps one-off cold-node accesses out of the map.  The configuration the
paper uses — 10 bits per item, capacity = half the sample size — yields
roughly a 1% false-positive rate; we default to the same.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator

from repro.obs.metrics import RATIO_BUCKETS, SIZE_BUCKETS
from repro.obs.runtime import active_registry

BITS_PER_ITEM = 10
NUM_HASHES = max(1, round(math.log(2) * BITS_PER_ITEM))


def _mix(value: int, seed: int) -> int:
    """A cheap 64-bit multiply-xor hash with a per-function seed."""
    value ^= seed
    value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    return value


class BloomFilter:
    """A standard Bloom filter over hashable identifiers.

    ``capacity`` is the expected number of distinct insertions; the number
    of bits is ``capacity * BITS_PER_ITEM`` and the number of hash
    functions is the optimum ``ln 2 * BITS_PER_ITEM`` (rounded).
    """

    def __init__(self, capacity: int) -> None:
        self._num_bits = max(8, max(1, capacity) * BITS_PER_ITEM)
        self._num_hashes = NUM_HASHES
        self._bits = 0
        self._count = 0

    @property
    def num_bits(self) -> int:
        """Size of the bit array."""
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        """Number of hash functions."""
        return self._num_hashes

    @property
    def approximate_count(self) -> int:
        """Number of insertions since the last reset (not distinct-exact)."""
        return self._count

    def _hash_pair(self, item: Hashable) -> "tuple[int, int]":
        """The two base hashes all probe positions derive from.

        Computed once per key; probe ``i`` is ``(h1 + i*h2) mod bits``
        (classic double hashing), so membership tests never rehash per
        probe.  ``h2`` is forced odd so the probe sequence cannot
        degenerate.
        """
        base = hash(item) & 0xFFFFFFFFFFFFFFFF
        h1 = _mix(base, 0x9E3779B97F4A7C15)
        h2 = _mix(base, 0xD1B54A32D192ED03) | 1
        return h1, h2

    def _positions(self, item: Hashable) -> Iterator[int]:
        h1, h2 = self._hash_pair(item)
        for i in range(self._num_hashes):
            yield (h1 + i * h2) % self._num_bits

    def add(self, item: Hashable) -> None:
        """Insert ``item`` into the filter."""
        h1, h2 = self._hash_pair(item)
        num_bits = self._num_bits
        bits = self._bits
        for _ in range(self._num_hashes):
            bits |= 1 << (h1 % num_bits)
            h1 += h2
        self._bits = bits
        self._count += 1

    def add_many(self, items: Iterable[Hashable]) -> None:
        """Insert every item of ``items`` (one bit-buffer write-back)."""
        num_bits = self._num_bits
        num_hashes = self._num_hashes
        bits = self._bits
        count = 0
        for item in items:
            h1, h2 = self._hash_pair(item)
            for _ in range(num_hashes):
                bits |= 1 << (h1 % num_bits)
                h1 += h2
            count += 1
        self._bits = bits
        self._count += count

    def __contains__(self, item: Hashable) -> bool:
        h1, h2 = self._hash_pair(item)
        num_bits = self._num_bits
        bits = self._bits
        for _ in range(self._num_hashes):
            if not (bits >> (h1 % num_bits)) & 1:
                return False
            h1 += h2
        return True

    def add_and_check(self, item: Hashable) -> bool:
        """Insert ``item``; return True iff it was (probably) seen before.

        This is the exact operation the sampling hot path needs: first
        sighting returns False (only the filter is touched), repeat
        sightings return True (the caller promotes the item into the
        sample map).
        """
        seen = True
        h1, h2 = self._hash_pair(item)
        num_bits = self._num_bits
        bits = self._bits
        for _ in range(self._num_hashes):
            position = h1 % num_bits
            if not (bits >> position) & 1:
                seen = False
                bits |= 1 << position
            h1 += h2
        self._bits = bits
        self._count += 1
        return seen

    def saturation(self) -> float:
        """Share of bits currently set (false-positive-rate proxy)."""
        return self._bits.bit_count() / self._num_bits

    def reset(self) -> None:
        """Clear the filter (done after every sampling phase).

        A phase boundary, so this is where the filter publishes into the
        installed metrics registry (if any): insertions seen this phase
        and how saturated the bit array got before clearing.
        """
        registry = active_registry()
        if registry is not None and self._count:
            registry.histogram(
                "bloom.insertions_per_phase", SIZE_BUCKETS
            ).record(self._count)
            registry.histogram("bloom.saturation", RATIO_BUCKETS).record(
                self.saturation()
            )
        self._bits = 0
        self._count = 0

    def size_bytes(self) -> int:
        """Modeled footprint: the bit array."""
        return (self._num_bits + 7) // 8
