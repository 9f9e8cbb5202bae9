"""Divergent per-replica adaptation: the profiles a replica set's copies
adapt under.

A :class:`~repro.service.shard.Shard` is a replica set of N >= 1 copies
with one write path; this package makes N > 1 worth it.  Each copy's
:class:`~repro.core.manager.AdaptationManager` diverges under a named
:class:`~repro.replication.profiles.ReplicaProfile` (point-tuned,
scan-tuned, balanced), and the shard sends each read to a copy whose
profile's affinity is the read's class, so each specialist adapts to
the slice of the workload it serves.

This is the "divergent index design" idea (per-replica index selection
for replicated databases) transplanted onto the paper's adaptive
*encodings*: instead of choosing different secondary indexes per
replica, each copy of the same B+-tree migrates its leaves differently
because it only sees the read class its profile names.  See
``docs/replication.md`` for the full design.
"""

from repro.replication.profiles import (
    REPLICA_PROFILES,
    ReplicaProfile,
    resolve_profiles,
)
from repro.replication.replica_set import Replica, ReplicaSetUnavailableError

__all__ = [
    "REPLICA_PROFILES",
    "Replica",
    "ReplicaProfile",
    "ReplicaSetUnavailableError",
    "resolve_profiles",
]
