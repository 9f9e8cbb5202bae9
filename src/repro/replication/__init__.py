"""Divergent per-replica adaptation: profiles and cost-based routing.

A :class:`~repro.service.shard.Shard` is a replica set of N >= 1 copies
with one write path; this package makes N > 1 worth it.  Each copy's
:class:`~repro.core.manager.AdaptationManager` diverges under a named
:class:`~repro.replication.profiles.ReplicaProfile` (point-tuned,
scan-tuned, balanced), and a
:class:`~repro.replication.routing.ReplicaRouter` steers reads by each
copy's measured modeled cost, encoding census and staleness.

This is the "divergent index design" idea (per-replica index selection
for replicated databases) transplanted onto the paper's adaptive
*encodings*: instead of choosing different secondary indexes per
replica, each copy of the same B+-tree migrates its leaves differently
because the router only shows it the slice of the workload it is best
at.  See ``docs/replication.md`` for the full design.
"""

from repro.replication.profiles import (
    REPLICA_PROFILES,
    ReplicaProfile,
    resolve_profiles,
)
from repro.replication.replica_set import Replica, ReplicaSetUnavailableError
from repro.replication.routing import ReplicaRouter

__all__ = [
    "REPLICA_PROFILES",
    "Replica",
    "ReplicaProfile",
    "ReplicaRouter",
    "ReplicaSetUnavailableError",
    "resolve_profiles",
]
