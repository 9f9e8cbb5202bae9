"""Key-space partitioners for the sharded index service.

Two carve-ups of the key space are provided:

* :class:`HashPartitioner` — a stable multiplicative/content hash maps
  every key to one of N shards.  Placement is uniform regardless of key
  skew, but shards cover interleaved key ranges, so an ordered scan
  reads every shard and sorts their results together, and the shard
  count is fixed for the router's lifetime.
* :class:`RangePartitioner` — N-1 sorted boundary keys carve the key
  space into contiguous ranges (shard ``i`` serves ``[b[i-1], b[i])``).
  Shards are ordered, so cross-shard scans concatenate, and ranges can
  be *split* and *merged* online — the service's rebalancing primitive.

Both hashes are deterministic across processes (no reliance on
``PYTHONHASHSEED``), so a router rebuilt from the same keys routes the
same way — a requirement for the wire oracle's replayable seeds.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

Key = Any  # int for the B+-tree families, bytes for the tries
#: One shard's share of a batch: its keys, and their positions in the batch.
Group = Tuple[List[Key], List[int]]

_MIX_CONSTANT = 0x9E3779B97F4A7C15  # 2^64 / golden ratio
_MASK_64 = (1 << 64) - 1


class PartitionError(ValueError):
    """An impossible partitioning operation (bad boundary, no split...)."""


def stable_hash(key: Key) -> int:
    """A process-independent 64-bit hash of one key.

    Integers go through a Fibonacci multiplicative mix (cheap, good
    avalanche on the high bits); byte strings through blake2b.  Python's
    builtin ``hash`` is salted per process for str/bytes and is only
    used as a last resort for exotic key types.
    """
    if isinstance(key, int):
        mixed = (key * _MIX_CONSTANT) & _MASK_64
        return mixed ^ (mixed >> 32)
    if isinstance(key, (bytes, bytearray)):
        digest = hashlib.blake2b(bytes(key), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    return hash(key) & _MASK_64


class Partitioner:
    """Maps keys to shard ids; subclasses define the key-space carve-up."""

    kind = "abstract"
    #: True when shard order equals key order (ordered scans concatenate).
    ordered = False

    @property
    def num_shards(self) -> int:
        """Number of shards this partitioner routes to."""
        raise NotImplementedError

    def shard_of(self, key: Key) -> int:
        """The shard id serving ``key``."""
        raise NotImplementedError

    def shards_of(self, keys: Sequence[Key]) -> List[int]:
        """The shard id serving each of ``keys``, in one call: the routing
        pass every batched read and write makes."""
        return list(map(self.shard_of, keys))

    def group(self, keys: Sequence[Key]) -> Dict[int, Group]:
        """``keys`` grouped by the shard id serving each key, in one
        :meth:`shards_of` pass: ``{shard: (its keys, their positions in
        keys)}``, shards in first-seen order."""
        groups: Dict[int, Group] = {}
        for position, (key, shard) in enumerate(zip(keys, self.shards_of(keys))):
            group = groups.get(shard)
            if group is None:
                group = groups[shard] = ([], [])
            group[0].append(key)
            group[1].append(position)
        return groups

    def split(self, shard_id: int, at_key: Key) -> "Partitioner":
        """A new partitioner with ``shard_id`` split at ``at_key``."""
        raise PartitionError(f"{self.kind} partitions do not support split")

    def merge(self, left_id: int) -> "Partitioner":
        """A new partitioner with ``left_id`` and ``left_id + 1`` merged."""
        raise PartitionError(f"{self.kind} partitions do not support merge")

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"{self.kind}({self.num_shards} shards)"

    def _check_shard_id(self, shard_id: int) -> None:
        if not 0 <= shard_id < self.num_shards:
            raise PartitionError(f"shard id {shard_id} outside [0, {self.num_shards})")


class HashPartitioner(Partitioner):
    """Uniform placement by stable hash; fixed shard count."""

    kind = "hash"
    ordered = False

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise PartitionError(f"need at least one shard, got {num_shards}")
        self._num_shards = num_shards

    @property
    def num_shards(self) -> int:
        """Number of shards this partitioner routes to."""
        return self._num_shards

    def shard_of(self, key: Key) -> int:
        """The shard id serving ``key``."""
        return stable_hash(key) % self._num_shards

    def shards_of(self, keys: Sequence[Key]) -> List[int]:
        """As :meth:`Partitioner.shards_of`, hashing each int key inline
        (no :meth:`shard_of` or :func:`stable_hash` frame per key)."""
        num_shards = self._num_shards
        shards: List[int] = []
        for key in keys:
            if isinstance(key, int):  # stable_hash's int branch, inline
                mixed = (key * _MIX_CONSTANT) & _MASK_64
                shards.append((mixed ^ (mixed >> 32)) % num_shards)
            else:
                shards.append(stable_hash(key) % num_shards)
        return shards


class RangePartitioner(Partitioner):
    """Contiguous key ranges split by N-1 sorted boundary keys.

    Shard ``i`` serves keys ``k`` with ``boundaries[i-1] <= k <
    boundaries[i]`` (the first shard is unbounded below, the last
    unbounded above).
    """

    kind = "range"
    ordered = True

    def __init__(self, boundaries: Sequence[Key]) -> None:
        boundary_list = list(boundaries)
        for left, right in zip(boundary_list, boundary_list[1:]):
            if left >= right:
                raise PartitionError(
                    f"boundaries must be strictly increasing; {left!r} >= {right!r}"
                )
        self._boundaries: List[Key] = boundary_list

    @classmethod
    def from_keys(cls, keys: Sequence[Key], num_shards: int) -> "RangePartitioner":
        """Equi-depth boundaries from a (sorted or unsorted) key sample."""
        if num_shards < 1:
            raise PartitionError(f"need at least one shard, got {num_shards}")
        if num_shards == 1:
            return cls([])
        unique = sorted(set(keys))
        if len(unique) < num_shards:
            raise PartitionError(
                f"{num_shards} shards need at least {num_shards} distinct "
                f"keys, got {len(unique)}"
            )
        step = len(unique) / num_shards
        boundaries = [unique[int(step * rank)] for rank in range(1, num_shards)]
        return cls(boundaries)

    @property
    def num_shards(self) -> int:
        """Number of shards this partitioner routes to."""
        return len(self._boundaries) + 1

    @property
    def boundaries(self) -> Tuple[Key, ...]:
        """The boundary keys (shard ``i`` starts at ``boundaries[i-1]``)."""
        return tuple(self._boundaries)

    def shard_of(self, key: Key) -> int:
        """The shard id serving ``key``."""
        return bisect.bisect_right(self._boundaries, key)

    def shards_of(self, keys: Sequence[Key]) -> List[int]:
        """As :meth:`Partitioner.shards_of`, with one ``bisect`` (and no
        Python frame) per key."""
        return list(map(partial(bisect.bisect_right, self._boundaries), keys))

    def shard_range(self, shard_id: int) -> Tuple[Optional[Key], Optional[Key]]:
        """``(low, high)`` bounds of one shard; None means unbounded."""
        self._check_shard_id(shard_id)
        low = self._boundaries[shard_id - 1] if shard_id > 0 else None
        high = (
            self._boundaries[shard_id]
            if shard_id < len(self._boundaries)
            else None
        )
        return low, high

    def split(self, shard_id: int, at_key: Key) -> "RangePartitioner":
        """A new partitioner with ``shard_id`` split at ``at_key``.

        ``at_key`` becomes the first key of the new right-hand shard and
        must lie strictly inside the split shard's current range.
        """
        low, high = self.shard_range(shard_id)
        if low is not None and at_key <= low:
            raise PartitionError(
                f"split key {at_key!r} at or below shard {shard_id} lower bound {low!r}"
            )
        if high is not None and at_key >= high:
            raise PartitionError(
                f"split key {at_key!r} at or above shard {shard_id} bound {high!r}"
            )
        boundaries = list(self._boundaries)
        boundaries.insert(shard_id, at_key)
        return RangePartitioner(boundaries)

    def merge(self, left_id: int) -> "RangePartitioner":
        """A new partitioner with ``left_id`` and ``left_id + 1`` merged."""
        self._check_shard_id(left_id)
        if left_id + 1 >= self.num_shards:
            raise PartitionError(
                f"shard {left_id} has no right neighbour to merge with"
            )
        boundaries = list(self._boundaries)
        del boundaries[left_id]
        return RangePartitioner(boundaries)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"range({self.num_shards} shards, boundaries={self._boundaries!r})"
