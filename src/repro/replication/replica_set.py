"""Replica sets are service shards; this module only re-exports them.

Every :class:`~repro.service.shard.Shard` is a replica set of N >= 1
:class:`~repro.service.shard.Replica` copies with one write path; a
replicated shard is the N > 1 case, each copy adapting under its own
:class:`~repro.replication.profiles.ReplicaProfile`.
"""

from repro.service.shard import Replica, ReplicaSetUnavailableError, Shard

# Imported by benchmarks/e2e/server_main.py; ROADMAP item 2(b) deletes
# this alias.
ReplicatedShard = Shard

__all__ = ["Replica", "ReplicaSetUnavailableError", "ReplicatedShard"]
