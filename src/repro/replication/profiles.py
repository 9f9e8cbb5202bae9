"""Named divergence profiles for per-shard read replicas.

A :class:`ReplicaProfile` is the *policy* half of a replica: it decides
how that copy's adaptation manager is tuned — how much memory budget it
may spend on expansions, how patient its CSHF is before compacting cold
leaves, and which read class (point or scan) the replica router should
seed toward it before any cost has been measured.  The *mechanism*
(skip-sampling, classification, migration) is exactly the paper's
:class:`~repro.core.manager.AdaptationManager`; a profile only changes
its knobs, so every replica remains an ordinary adaptive B+-tree.

Profiles are registered by name in :data:`REPLICA_PROFILES` because the
names are persisted in the durability manifest: recovery must rebuild a
replica with the *same* divergence policy it crashed with, not a
generic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bptree.hybrid import BTREE_ENCODING_ORDER, AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.core.budget import MemoryBudget
from repro.core.heuristics import make_threshold_heuristic
from repro.core.manager import ManagerConfig

Pair = Tuple[int, int]

#: Budget (relative, bits per key) meant to hold one read class's hot
#: leaves expanded to Gapped but not both classes at once — the pressure
#: that makes divergence pay on a mixed workload.  It only does so where
#: Succinct is cheap: dense keys with values of up to 16 bits take 15-26
#: bits/key in Succinct leaves (Gapped ~185), but 38-bit keys with 61-bit
#: values bulk-load at 96.6 bits/key all-Succinct, above this budget, so
#: there no leaf expands and every write lands on a Succinct leaf.
_SPECIALIST_BITS_PER_KEY = 80.0

#: Budget so far below the all-Succinct floor that the CSHF can never
#: justify an expansion: the memory-squeezed replica stays compact.
_SQUEEZED_BITS_PER_KEY = 8.0


@dataclass(frozen=True)
class ReplicaProfile:
    """How one replica of a shard is allowed to adapt."""

    name: str
    description: str
    #: None = unbounded; otherwise a relative budget in bits per key.
    budget_bits_per_key: Optional[float]
    #: Read class ("point" or "scan") the router seeds toward this
    #: replica before measured costs exist; None = no prior preference.
    affinity: Optional[str] = None
    #: Consecutive cold phases before the CSHF compacts / evicts a leaf.
    cold_phases_to_compact: int = 2
    cold_phases_to_forget: int = 8
    #: Whether inserts eagerly expand the written leaf.
    eager_insert_expansion: bool = True
    #: Replica-scale sampling cadence.  A replica sees only the slice of
    #: the workload the router steers to it, so its phases are much
    #: shorter than a standalone index's statistically-derived default —
    #: divergence should show up within a few thousand routed reads,
    #: not hundreds of thousands.
    phase_sample_size: int = 256
    skip_length: int = 10

    def budget(self) -> MemoryBudget:
        """The memory budget this profile grants its manager."""
        if self.budget_bits_per_key is None:
            return MemoryBudget.unbounded()
        return MemoryBudget.relative(self.budget_bits_per_key)

    def manager_config(self) -> ManagerConfig:
        """A fresh ManagerConfig expressing this profile's policy."""
        return ManagerConfig(
            encoding_order=BTREE_ENCODING_ORDER,
            budget=self.budget(),
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
            list(pairs),
            manager_config=self.manager_config(),
            eager_insert_expansion=self.eager_insert_expansion,
        )

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for stats surfaces."""
        return {
            "name": self.name,
            "affinity": self.affinity,
            "budget_bits_per_key": self.budget_bits_per_key,
            "cold_phases_to_compact": self.cold_phases_to_compact,
        }


#: The registry of persistable profiles (names land in the manifest).
REPLICA_PROFILES: Dict[str, ReplicaProfile] = {
    "point": ReplicaProfile(
        name="point",
        description=(
            "Point-lookup specialist: spends its budget expanding the "
            "leaves that hot point reads land on."
        ),
        budget_bits_per_key=_SPECIALIST_BITS_PER_KEY,
        affinity="point",
    ),
    "scan": ReplicaProfile(
        name="scan",
        description=(
            "Range-scan specialist: holds scanned runs expanded longer "
            "(patient compaction) so sequential leaf visits stay cheap."
        ),
        budget_bits_per_key=_SPECIALIST_BITS_PER_KEY,
        affinity="scan",
        cold_phases_to_compact=4,
        cold_phases_to_forget=12,
        # Scans sample once per visited *leaf*, not per entry, so the
        # scan specialist needs a denser cadence to fill phases at the
        # same wall rate as the point specialist.
        phase_sample_size=128,
        skip_length=4,
    ),
    "squeezed": ReplicaProfile(
        name="squeezed",
        description=(
            "Memory-squeezed fallback: budget below the Succinct floor, "
            "so it never expands — the cheap-to-keep surviving copy."
        ),
        budget_bits_per_key=_SQUEEZED_BITS_PER_KEY,
        eager_insert_expansion=False,
    ),
    "balanced": ReplicaProfile(
        name="balanced",
        description=(
            "No divergence policy: the identical-replica baseline with "
            "the same budget as the specialists."
        ),
        budget_bits_per_key=_SPECIALIST_BITS_PER_KEY,
    ),
}

#: Default specialist line-up, in the order factors consume them.
_DEFAULT_ORDER = ("point", "scan", "squeezed")


def resolve_profiles(
    factor: int, names: Optional[Sequence[str]] = None
) -> List[ReplicaProfile]:
    """The profile per replica for a replication factor.

    Explicit ``names`` must match ``factor`` and resolve in
    :data:`REPLICA_PROFILES`.  The default line-up is point, scan,
    squeezed, then balanced fillers for larger factors.
    """
    if factor < 1:
        raise ValueError(f"replication factor must be >= 1, got {factor}")
    if names is not None:
        if len(names) != factor:
            raise ValueError(
                f"{len(names)} profiles given for replication factor {factor}"
            )
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
