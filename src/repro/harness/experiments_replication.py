"""Replication bench: divergent per-replica adaptation vs identical copies.

One key space, two replicated shard groups with the same replication
factor, the same data, and the same mixed point/scan workload:

* **divergent** — the default line-up (point-tuned, scan-tuned, then
  balanced).  Each read goes to the copy whose profile's affinity is
  its class, so each specialist's
  :class:`~repro.core.manager.AdaptationManager` spends its budget on
  *that* class's hot leaves.
* **identical** — the same factor of ``balanced`` replicas (same budget
  as the specialists), which take reads in turn: every copy sees the
  full mix and must split its budget across both hot regions.

The workload keeps a point-hot key region and a disjoint scan region,
each too large for one budget to cover both — the pressure that makes
divergence pay.  After warmup passes (adaptation converges), one
measured pass prices each leg's summed replica
counter deltas through the calibrated
:class:`~repro.sim.costmodel.CostModel` and times the same pass on the
wall clock.  The ratio of modeled ns/read, identical over divergent, is
paper context, not a service claim: ``benchmarks/bench_replication.py``
prints it beside the wall-clock reads/s ratio and gates neither.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.service.router import ShardRouter
from repro.sim.costmodel import CostModel

Pair = Tuple[int, int]
#: One workload step: ("point", probe keys) or ("scan", start key).
Step = Tuple[str, Any]

#: Hot-region geometry, as fractions of the key space.  The two regions
#: are disjoint and together oversubscribe the specialist budget (which
#: covers roughly a third of a shard's leaves) — a balanced replica
#: cannot hold both expanded at once.
_POINT_REGION = (0.00, 0.30)
_SCAN_REGION = (0.55, 0.85)


def build_mixed_workload(
    keys: Sequence[int],
    num_batches: int,
    batch_size: int,
    num_scans: int,
    scan_length: int,
    seed: int = 0,
) -> List[Step]:
    """Interleaved point batches and scans over disjoint hot regions."""
    rng = random.Random(seed)
    point_lo = int(len(keys) * _POINT_REGION[0])
    point_hi = max(point_lo + 1, int(len(keys) * _POINT_REGION[1]))
    scan_lo = int(len(keys) * _SCAN_REGION[0])
    scan_hi = max(scan_lo + 1, int(len(keys) * _SCAN_REGION[1]) - scan_length)
    steps: List[Step] = []
    for _ in range(num_batches):
        steps.append(
            (
                "point",
                [keys[rng.randrange(point_lo, point_hi)] for _ in range(batch_size)],
            )
        )
    for _ in range(num_scans):
        steps.append(("scan", keys[rng.randrange(scan_lo, scan_hi)]))
    rng.shuffle(steps)
    return steps


def replay(router: ShardRouter, steps: Sequence[Step], scan_length: int) -> int:
    """Run one pass of the workload; returns the read units served
    (point lookups plus scanned entries — the per-read normalizer)."""
    units = 0
    for kind, payload in steps:
        if kind == "point":
            router.get_many(payload)
            units += len(payload)
        else:
            units += len(router.scan(payload, scan_length))
    return units


def _priced_total_ns(
    cost_model: CostModel,
    before: Mapping[int, Mapping[str, int]],
    after: Mapping[int, Mapping[str, int]],
) -> float:
    """Price every shard's counter delta; return the summed ns.

    Replication is a *cost-efficiency* comparison (same parallelism on
    both legs), so the figure is total work.
    """
    total = 0.0
    for shard_id, events in after.items():
        base = before.get(shard_id, {})
        delta = {name: count - base.get(name, 0) for name, count in events.items()}
        total += cost_model.price(delta)
    return total


def _replica_summary(router: ShardRouter) -> List[Dict[str, Any]]:
    """Per-replica divergence evidence across the group's shards."""
    rows: List[Dict[str, Any]] = []
    for stats in router.stats()["shards"]:
        for row in stats.get("replicas", []):
            rows.append(
                {
                    "shard": stats["shard_id"],
                    "replica": row["replica"],
                    "profile": row["profile"],
                    "reads_routed": row["reads_routed"],
                    "migrations": row["migrations"],
                    "encoding_census": {
                        name: entry.get("count", 0)
                        for name, entry in row["encoding_census"].items()
                    },
                }
            )
    return rows


def run_replication_leg(
    pairs: Sequence[Pair],
    steps: Sequence[Step],
    scan_length: int,
    factor: int,
    num_shards: int,
    profiles: Optional[Sequence[str]],
    warmup_passes: int = 2,
) -> Dict[str, Any]:
    """Build one replicated group, warm it up, measure one priced pass."""
    router = ShardRouter.build(
        list(pairs),
        family="adaptive",
        num_shards=num_shards,
        replication_factor=factor,
        replica_profiles=profiles,
    )
    try:
        for _ in range(warmup_passes):
            replay(router, steps, scan_length)
        cost_model = CostModel()
        before = router.counter_snapshots()
        start = time.perf_counter()
        units = replay(router, steps, scan_length)
        wall_seconds = time.perf_counter() - start
        total_ns = _priced_total_ns(cost_model, before, router.counter_snapshots())
        if total_ns <= 0.0:
            raise RuntimeError(
                f"replication leg (profiles={profiles!r}) priced zero counter "
                "events; the adaptive family must publish structural counters"
            )
        return {
            "profiles": sorted(
                {row["profile"] for row in _replica_summary(router)}
            ),
            "read_units": units,
            "modeled_ns_per_read": round(total_ns / units, 2),
            "wall_reads_per_s": round(units / wall_seconds, 0),
            "size_bytes": sum(
                shard.size_bytes() for shard in router.table.shards
            ),
            "replicas": _replica_summary(router),
        }
    finally:
        router.close()


def run_replication_comparison(
    num_keys: int = 16_000,
    num_batches: int = 300,
    batch_size: int = 64,
    num_scans: int = 600,
    scan_length: int = 1500,
    factor: int = 3,
    num_shards: int = 2,
    warmup_passes: int = 2,
    seed: int = 0,
) -> Dict[str, Any]:
    """Both legs on the same data and workload, plus the headline ratio."""
    keys = list(range(0, num_keys * 2, 2))
    pairs = [(key, key * 3 + 1) for key in keys]
    steps = build_mixed_workload(
        keys, num_batches, batch_size, num_scans, scan_length, seed=seed
    )
    divergent = run_replication_leg(
        pairs,
        steps,
        scan_length,
        factor,
        num_shards,
        profiles=None,
        warmup_passes=warmup_passes,
    )
    identical = run_replication_leg(
        pairs,
        steps,
        scan_length,
        factor,
        num_shards,
        profiles=["balanced"] * factor,
        warmup_passes=warmup_passes,
    )
    speedup = (
        identical["modeled_ns_per_read"] / divergent["modeled_ns_per_read"]
        if divergent["modeled_ns_per_read"]
        else 0.0
    )
    return {
        "config": {
            "num_keys": num_keys,
            "num_batches": num_batches,
            "batch_size": batch_size,
            "num_scans": num_scans,
            "scan_length": scan_length,
            "replication_factor": factor,
            "num_shards": num_shards,
            "warmup_passes": warmup_passes,
            "seed": seed,
        },
        "divergent": divergent,
        "identical": identical,
        "divergent_speedup": round(speedup, 3),
    }


def experiment_replication_bench(
    num_keys: int = 16_000,
    num_batches: int = 300,
    batch_size: int = 64,
    num_scans: int = 600,
    scan_length: int = 1500,
    factor: int = 3,
    num_shards: int = 2,
    seed: int = 0,
) -> Dict[str, Any]:
    """Divergent vs identical replicas on one mixed workload (harness
    table view of :func:`run_replication_comparison`)."""
    payload = run_replication_comparison(
        num_keys=num_keys,
        num_batches=num_batches,
        batch_size=batch_size,
        num_scans=num_scans,
        scan_length=scan_length,
        factor=factor,
        num_shards=num_shards,
        seed=seed,
    )
    rows = []
    for leg in ("divergent", "identical"):
        entry = payload[leg]
        rows.append(
            (
                leg,
                "+".join(entry["profiles"]),
                entry["modeled_ns_per_read"],
                payload["divergent_speedup"] if leg == "divergent" else 1.0,
                round(entry["size_bytes"] / (1024 * 1024), 2),
                sum(row["migrations"] for row in entry["replicas"]),
            )
        )
    return {
        "headers": [
            "leg",
            "profiles",
            "modeled_ns_per_read",
            "speedup",
            "size_MiB",
            "migrations",
        ],
        "rows": rows,
    }
