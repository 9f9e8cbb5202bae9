"""repro.service — a sharded front end over the index families.

The adaptation manager of the paper (Section 3) runs *per structure*
with bounded memory, which composes naturally across partitions: each
shard of a :class:`~repro.service.router.ShardRouter` wraps one index
family instance (AdaptiveBPlusTree, OlcBPlusTree, DualStageIndex,
HybridTrie, ...) with its own manager under the memory budget its
builder set (the family factory's default, or a replica profile's).

Components:

* :mod:`repro.service.partition` — hash and range key-space
  partitioners (range partitions support online split/merge);
* :mod:`repro.service.shard` — one partition: a replica set of N >= 1
  copies with one write path, each copy with its own access discipline
  (an operation lock for non-thread-safe families, lock-free reads for
  the OLC B+-tree);
* :mod:`repro.service.router` — the batched front end
  (``get_many`` / ``put_many`` / ``scan``) executing per-shard
  sub-batches on the caller's thread (a pool only overlaps the WAL
  waits of durable writes), merging ordered scans across shards,
  and performing online shard split/merge with the PR-1
  build-aside+swap discipline (fault-injectable, zero lost keys).
"""

from repro.service.partition import (
    HashPartitioner,
    Partitioner,
    PartitionError,
    RangePartitioner,
)
from repro.service.router import ShardRouter
from repro.service.shard import Shard

__all__ = [
    "HashPartitioner",
    "Partitioner",
    "PartitionError",
    "RangePartitioner",
    "Shard",
    "ShardRouter",
]
