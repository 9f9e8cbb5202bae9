"""Kill-one-replica fault leg and the divergent-replica ratio (PR 9).

One machine-readable ``BENCH_PR9.json`` at the repo root:

* **Losing a replica loses no acked write** — the suite's gate.  A
  durable replicated group takes writes while a fault is injected into
  one replica's WAL append (the replica is poisoned and fenced
  mid-stream), keeps accepting acked writes on the survivors, then
  crashes and recovers.  Every acknowledged write must be readable
  afterwards, the divergence profiles must survive recovery, and the
  fenced replica must have been rebuilt from the authoritative copy.

* **Divergent versus identical copies** — informational, paper context.
  On a mixed point/scan workload served through the routed read path,
  a replica set of divergently tuned copies (point-tuned, scan-tuned,
  memory-squeezed) behind cost routing is compared with the same number
  of ``balanced`` copies behind round-robin.  The ratio is *modeled*:
  each leg's structural counter deltas priced through the calibrated
  cost model.  The same run's wall-clock reads/s ratio is printed beside
  it so the two orderings can be compared; neither is gated
  (docs/replication.md splits the modeled ratio into its parts).

Every run checks the fault leg; ``--write`` rewrites the committed
file::

    PYTHONPATH=src python benchmarks/bench_replication.py --keys 8000
    PYTHONPATH=src python benchmarks/bench_replication.py --write

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_replication.py -q
"""

import random
import tempfile
from pathlib import Path

import benchkit
import pytest

from repro.durability.manager import DurabilityManager
from repro.faults.injector import FaultInjector
from repro.harness.experiments_replication import run_replication_comparison
from repro.service.router import ShardRouter

DEFAULT_KEYS = 16_000
REPLICATION_FACTOR = 3
RESULT_FILE = benchkit.REPO_ROOT / "BENCH_PR9.json"


def _workload_scale(num_keys):
    """Workload knobs proportional to the key count.

    Scan length tracks the key space so scans keep visiting the same
    *fraction* of the scan region at every bench scale.
    """
    return {
        "num_batches": 300,
        "batch_size": 64,
        "num_scans": 600,
        "scan_length": max(200, num_keys * 3 // 32),
    }


def run_replication_bench(num_keys=DEFAULT_KEYS, factor=REPLICATION_FACTOR, seed=0):
    """Run both routing legs; returns the BENCH_PR9.json payload."""
    scale = _workload_scale(num_keys)
    comparison = run_replication_comparison(
        num_keys=num_keys, factor=factor, seed=seed, **scale
    )
    return {
        "suite": "PR9 divergent replica bench",
        "keys": num_keys,
        "replication_factor": factor,
        "workload": comparison["config"],
        "legs": {
            "divergent": comparison["divergent"],
            "identical": comparison["identical"],
        },
        "headline": {
            "divergent_speedup": comparison["divergent_speedup"],
            "wall_speedup": round(
                comparison["divergent"]["wall_reads_per_s"]
                / comparison["identical"]["wall_reads_per_s"],
                3,
            ),
        },
    }


def run_fault_leg(
    num_keys=4_000,
    num_batches=30,
    batch_size=40,
    factor=REPLICATION_FACTOR,
    num_shards=2,
    seed=0xBEEF,
    root=None,
):
    """Kill one replica mid-stream; prove no acked write is ever lost.

    The injector arms the real ``durability.wal.append`` fault point for
    exactly one append of one batch's fan-out: that replica's WAL is
    poisoned and the replica fenced, while the survivors acknowledge the
    write.  The group then keeps taking writes, crashes (handles closed,
    no final checkpoint), and recovers.  Returns a summary whose
    ``lost_acked_writes`` must be zero.
    """
    rng = random.Random(seed)
    pairs = [(key, key + 1) for key in range(0, num_keys * 2, 2)]
    with tempfile.TemporaryDirectory() as tmp:
        durability = DurabilityManager(Path(root) if root is not None else Path(tmp))
        router = ShardRouter.build(
            pairs,
            family="adaptive",
            num_shards=num_shards,
            replication_factor=factor,
            durability=durability,
        )
        acked = dict(pairs)
        expected_profiles = [
            replica.profile.name for replica in router.table.shards[0].replicas
        ]
        faults_injected = 0
        kill_at = num_batches // 3
        for index in range(num_batches):
            batch = [
                (rng.randrange(num_keys * 4) * 2 + index % 2, rng.randrange(1 << 30))
                for _ in range(batch_size)
            ]
            if index == kill_at:
                # Fan-out appends run in replica order under the shard's
                # write gate; failing the second matching append poisons
                # exactly one replica's WAL while the others acknowledge.
                with FaultInjector(
                    site="durability.wal.append", fail_at=2, max_failures=1
                ) as injector:
                    router.put_many(batch)
                faults_injected = injector.failures_injected
            else:
                router.put_many(batch)
            acked.update(batch)
        downed = [
            (shard.shard_id, replica.replica_id)
            for shard in router.table.shards
            for replica in shard.replicas
            if replica.down
        ]
        router.close()  # the crash: no final checkpoint, WAL tails replay

        recovered = ShardRouter.recover(durability, family="adaptive")
        try:
            items = sorted(acked.items())
            found = recovered.get_many([key for key, _ in items])
            lost = sum(
                1 for (_, value), got in zip(items, found) if got != value
            )
            recovered.verify()
            recovered_profiles = [
                replica.profile.name
                for replica in recovered.table.shards[0].replicas
            ]
            info = dict(recovered.last_recovery or {})
        finally:
            recovered.close()
    return {
        "acked_writes": len(acked),
        "faults_injected": faults_injected,
        "replicas_downed": len(downed),
        "replicas_rebuilt": info.get("replicas_rebuilt", 0),
        "profiles_preserved": recovered_profiles == expected_profiles,
        "lost_acked_writes": lost,
    }


def format_report(payload):
    lines = [
        f"replication bench @ {payload['keys']} keys "
        f"(factor {payload['replication_factor']})"
    ]
    for leg_name, leg in payload["legs"].items():
        lines.append(
            f"{leg_name:>9s}  routing {leg['routing']:<11s} "
            f"modeled {leg['modeled_ns_per_read']:>6.2f} ns/read  "
            f"size {leg['size_bytes'] / (1024 * 1024):.2f} MiB"
        )
    lines.append(
        f"divergent over identical: {payload['summary']['divergent_speedup']:.2f}x "
        f"modeled (paper context), {payload['summary']['wall_speedup']:.2f}x wall"
    )
    if "fault_leg" in payload:
        fault = payload["fault_leg"]
        lines.append(
            f"fault leg: {fault['acked_writes']} acked writes, "
            f"{fault['replicas_downed']} replica(s) killed, "
            f"{fault['replicas_rebuilt']} rebuilt, "
            f"{fault['lost_acked_writes']} lost"
        )
    return "\n".join(lines)


def headline(payload):
    """The kill loses no acked write; the modeled and wall ratios are context."""
    rows = [
        benchkit.row("replication.divergent_speedup", payload["summary"]["divergent_speedup"]),
        benchkit.row("replication.wall_speedup", payload["summary"]["wall_speedup"]),
    ]
    if "fault_leg" in payload:
        rows.append(
            benchkit.row(
                "replication.lost_acked_writes",
                payload["fault_leg"]["lost_acked_writes"],
                "==",
                0,
            )
        )
    return rows


def check_fault_leg(summary):
    """The kill happened and healed (lost writes are a ``headline`` row)."""
    failures = []
    if summary["faults_injected"] < 1:
        failures.append("fault leg injected no WAL append fault")
    if summary["replicas_downed"] < 1:
        failures.append("fault leg fenced no replica")
    if summary["replicas_rebuilt"] < 1:
        failures.append("recovery rebuilt no replica")
    if not summary["profiles_preserved"]:
        failures.append("divergence profiles did not survive recovery")
    return failures


@pytest.mark.perf
def test_replication_bench_headline():
    payload = run_replication_bench(num_keys=8_000)
    assert benchkit.finish(payload, headline, format_report, RESULT_FILE) == 0


@pytest.mark.faults
def test_replication_fault_leg_loses_nothing():
    summary = run_fault_leg(num_keys=2_000, num_batches=18)
    assert summary["faults_injected"] == 1
    assert summary["replicas_downed"] == 1
    assert summary["replicas_rebuilt"] >= 1
    assert summary["profiles_preserved"]
    assert summary["lost_acked_writes"] == 0


def main(argv=None) -> int:
    parser = benchkit.parser("Divergent replica bench (PR 9).")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument("--factor", type=int, default=REPLICATION_FACTOR)
    parser.add_argument(
        "--skip-fault-leg",
        action="store_true",
        help="skip the kill-one-replica durability leg",
    )
    args = parser.parse_args(argv)
    payload = run_replication_bench(num_keys=args.keys, factor=args.factor)
    failures = []
    if not args.skip_fault_leg:
        payload["fault_leg"] = run_fault_leg(num_keys=max(1000, args.keys // 4))
        failures = check_fault_leg(payload["fault_leg"])
    return benchkit.finish(
        payload, headline, format_report, RESULT_FILE, args.write, failures
    )


if __name__ == "__main__":
    raise SystemExit(main())
