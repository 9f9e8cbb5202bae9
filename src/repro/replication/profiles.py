"""Named divergence profiles for per-shard read replicas.

A :class:`ReplicaProfile` is the *policy* half of a replica: it decides
how that copy's adaptation manager is tuned — how patient its CSHF is
before compacting cold leaves, how often it samples — and which read
class (point or scan) it serves; every profile gets the same memory
budget.
The *mechanism* (skip-sampling, classification, migration) is exactly
the paper's :class:`~repro.core.manager.AdaptationManager`; a profile
only changes its knobs, so every replica remains an ordinary adaptive
B+-tree.

Profiles are registered by name in :data:`REPLICA_PROFILES` because the
names are persisted in the durability manifest: recovery must rebuild a
replica with the *same* divergence policy it crashed with, not a
generic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.core.budget import MemoryBudget
from repro.core.heuristics import make_threshold_heuristic
from repro.core.manager import ManagerConfig

Pair = Tuple[int, int]

#: Every profile's budget (relative, bits per key): meant to hold one read
#: class's hot leaves expanded to Gapped but not both classes at once — the
#: pressure that makes divergence pay on a mixed workload.  It only does so where
#: Succinct is cheap: dense keys with values of up to 16 bits take 15-26
#: bits/key in Succinct leaves (Gapped ~185), but 38-bit keys with 61-bit
#: values bulk-load at 96.6 bits/key all-Succinct, above this budget, so
#: there no leaf expands and every write lands on a Succinct leaf.
_BUDGET_BITS_PER_KEY = 80.0


@dataclass(frozen=True)
class ReplicaProfile:
    """How one replica of a shard is allowed to adapt."""

    name: str
    description: str
    #: Read class ("point" or "scan") this replica serves: a shard sends
    #: a class's reads to its copies with that affinity while any is
    #: live, else to every live copy.  None: serves no class of its own.
    affinity: Optional[str] = None
    #: Consecutive cold phases before the CSHF compacts / evicts a leaf.
    cold_phases_to_compact: int = 2
    cold_phases_to_forget: int = 8
    #: Replica-scale sampling cadence.  A replica sees only the slice of
    #: the workload its affinity routes to it, so its phases are much
    #: shorter than a standalone index's statistically-derived default —
    #: divergence should show up within a few thousand routed reads,
    #: not hundreds of thousands.
    phase_sample_size: int = 256
    skip_length: int = 10

    def manager_config(self) -> ManagerConfig:
        """A fresh ManagerConfig expressing this profile's policy."""
        return ManagerConfig(
            encoding_order=BTREE_ENCODING_ORDER,
            budget=MemoryBudget.relative(_BUDGET_BITS_PER_KEY),
            heuristic=make_threshold_heuristic(
                LeafEncoding.GAPPED,
                LeafEncoding.SUCCINCT,
                cold_phases_to_compact=self.cold_phases_to_compact,
                cold_phases_to_forget=self.cold_phases_to_forget,
            ),
            initial_sample_size=self.phase_sample_size,
            initial_skip_length=self.skip_length,
            skip_min=self.skip_length,
        )

    def build_index(self, pairs: Sequence[Pair]) -> AdaptiveBPlusTree:
        """Bulk-load one replica's adaptive B+-tree under this policy."""
        return AdaptiveBPlusTree.bulk_load_adaptive(
            list(pairs), manager_config=self.manager_config()
        )


#: The registry of persistable profiles (names land in the manifest).
REPLICA_PROFILES: Dict[str, ReplicaProfile] = {
    "point": ReplicaProfile(
        name="point",
        description=(
            "Point-lookup specialist: spends its budget expanding the "
            "leaves that hot point reads land on."
        ),
        affinity="point",
    ),
    "scan": ReplicaProfile(
        name="scan",
        description=(
            "Range-scan specialist: holds scanned runs expanded longer "
            "(patient compaction) so sequential leaf visits stay cheap."
        ),
        affinity="scan",
        cold_phases_to_compact=4,
        cold_phases_to_forget=12,
        # Scans sample once per visited *leaf*, not per entry, so the
        # scan specialist needs a denser cadence to fill phases at the
        # same wall rate as the point specialist.
        phase_sample_size=128,
        skip_length=4,
    ),
    "balanced": ReplicaProfile(
        name="balanced",
        description=(
            "No divergence policy: the identical-replica baseline with "
            "the same budget as the specialists."
        ),
    ),
}

#: Default specialist line-up, in the order factors consume them.
_DEFAULT_ORDER = ("point", "scan")

#: Retired profile names that older manifests may still record, and the
#: profile that rebuilds such a copy.  A ``squeezed`` copy's budget sat
#: below the Succinct floor, so it never expanded a leaf; a ``balanced``
#: third copy serves the same bytes and reads.
_RETIRED_PROFILES = {"squeezed": "balanced"}


def resolve_profiles(
    factor: int, names: Optional[Sequence[str]] = None
) -> List[ReplicaProfile]:
    """The profile per replica for a replication factor.

    Explicit ``names`` must match ``factor`` and resolve in
    :data:`REPLICA_PROFILES` (a retired name resolves to its stand-in, so
    an older manifest still recovers).  The default line-up is point,
    scan, then balanced fillers for larger factors.
    """
    if factor < 1:
        raise ValueError(f"replication factor must be >= 1, got {factor}")
    if names is not None:
        if len(names) != factor:
            raise ValueError(
                f"{len(names)} profiles given for replication factor {factor}"
            )
        names = [_RETIRED_PROFILES.get(name, name) for name in names]
        missing = [name for name in names if name not in REPLICA_PROFILES]
        if missing:
            raise ValueError(
                f"unknown replica profiles {missing}; expected names from "
                f"{sorted(REPLICA_PROFILES)}"
            )
        return [REPLICA_PROFILES[name] for name in names]
    if factor == 1:
        return [REPLICA_PROFILES["balanced"]]
    chosen = list(_DEFAULT_ORDER[:factor])
    while len(chosen) < factor:
        chosen.append("balanced")
    return [REPLICA_PROFILES[name] for name in chosen]
