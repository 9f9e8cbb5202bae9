"""Durability bench (PR 6).

Measures what the write-ahead log actually costs on the ``put_many``
path and what recovery actually costs per WAL frame, then writes the
machine-readable ``BENCH_PR6.json`` at the repo root:

* **sustained write throughput** under three durability modes — WAL
  off, WAL with group commit (one buffered write per batch, no fsync),
  and WAL with one fsync per batch.  The headline gate: group commit
  must retain **>= 50%** of the no-WAL write throughput (the whole
  point of batching the commit);
* **recovery time vs WAL-tail length** — how long
  :meth:`ShardRouter.recover` takes as the un-checkpointed tail grows,
  reported as frames/second of replay.

In the disk-resident cost-model vocabulary (PAPERS.md: updatable
learned indexes on disk, AirIndex's storage-profile tuning): the WAL
charges every write batch one sequential-write I/O (plus an fsync
barrier under ``"batch"``), checkpoints charge one full-shard
sequential write amortized over the checkpoint interval, and recovery
charges one sequential read of snapshot + tail — numbers this bench
reports honestly rather than assumes.

Every run checks that gate and the group-commit *retention ratio*
(stable across machines; absolute ops/sec are reported alongside)
against the committed file (``benchkit``); ``--write`` rewrites it.

Crash recovery itself — zero lost acknowledged writes through ≥ 1 000
injected crashes, torn tails and crashes during replay — is checked
through the wire by ``tests/integration/test_wire_oracle.py``.  Run::

    PYTHONPATH=src python benchmarks/bench_durability.py --keys 8000

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_durability.py -q
"""

import shutil
import tempfile
import time
from pathlib import Path

import benchkit
import pytest

from repro.durability import DurabilityManager
from repro.service.router import ShardRouter

DEFAULT_KEYS = 40_000
BATCH_SIZE = 500
GROUP_COMMIT_RETENTION_REQUIRED = 0.50
RESULT_FILE = benchkit.REPO_ROOT / "BENCH_PR6.json"

#: (mode key, DurabilityManager sync policy or None for WAL off).
MODES = (
    ("wal_off", None),
    ("wal_group_commit", "none"),
    ("wal_fsync_per_batch", "batch"),
)


def _timed_put_many(sync, num_writes, batch_size, family="olc"):
    """Wall-clock ops/sec of sustained ``put_many`` under one sync mode."""
    root = Path(tempfile.mkdtemp(prefix="repro-bench-durability-"))
    try:
        durability = (
            None if sync is None else DurabilityManager(root / "store", sync=sync)
        )
        initial = [(key, key) for key in range(4_000)]
        router = ShardRouter.build(
            initial,
            family=family,
            num_shards=4,
            partitioning="range",
            durability=durability,
        )
        base = len(initial)
        batches = [
            [(base + offset, offset) for offset in range(start, start + batch_size)]
            for start in range(0, num_writes, batch_size)
        ]
        begin = time.perf_counter()
        for batch in batches:
            router.put_many(batch)
        elapsed = time.perf_counter() - begin
        router.close()
        return num_writes / elapsed
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_throughput_bench(num_keys=DEFAULT_KEYS, batch_size=BATCH_SIZE):
    """The three-mode write sweep; returns mode -> ops/sec plus ratios."""
    modes = {}
    for mode_key, sync in MODES:
        modes[mode_key] = {"ops_per_sec": round(_timed_put_many(sync, num_keys, batch_size), 1)}
    baseline = modes["wal_off"]["ops_per_sec"]
    for mode_key, _sync in MODES:
        modes[mode_key]["retention_vs_wal_off"] = round(
            modes[mode_key]["ops_per_sec"] / baseline, 4
        )
    return modes


def run_recovery_bench(tail_lengths=(0, 4_000, 16_000), batch_size=BATCH_SIZE):
    """Recovery wall time as the un-checkpointed WAL tail grows."""
    rows = []
    for tail in tail_lengths:
        root = Path(tempfile.mkdtemp(prefix="repro-bench-recovery-"))
        try:
            durability = DurabilityManager(root / "store", sync="none")
            initial = [(key, key) for key in range(4_000)]
            router = ShardRouter.build(
                initial,
                family="olc",
                num_shards=4,
                partitioning="range",
                durability=durability,
            )
            router.checkpoint()  # the tail below is exactly what replay must cover
            base = len(initial)
            for start in range(0, tail, batch_size):
                router.put_many(
                    [(base + offset, offset) for offset in range(start, start + batch_size)]
                )
            router.close()
            begin = time.perf_counter()
            recovered = ShardRouter.recover(
                DurabilityManager(root / "store", sync="none"), family="olc"
            )
            elapsed = time.perf_counter() - begin
            summary = recovered.last_recovery or {}
            recovered.close()
            rows.append(
                {
                    "wal_tail_records": tail,
                    "recovery_seconds": round(elapsed, 4),
                    "frames_replayed": summary.get("frames_replayed", 0),
                    "replay_frames_per_sec": (
                        round(summary.get("frames_replayed", 0) / elapsed, 1)
                        if elapsed > 0
                        else 0.0
                    ),
                }
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return rows


def run_durability_bench(num_keys=DEFAULT_KEYS, batch_size=BATCH_SIZE):
    """Run both sweeps; returns the BENCH_PR6.json payload."""
    modes = run_throughput_bench(num_keys=num_keys, batch_size=batch_size)
    recovery = run_recovery_bench()
    return {
        "suite": "PR6 durability bench",
        "keys": num_keys,
        "batch_size": batch_size,
        "write_throughput": modes,
        "recovery": recovery,
        "headline": {
            "group_commit_retention": modes["wal_group_commit"]["retention_vs_wal_off"],
            "required": GROUP_COMMIT_RETENTION_REQUIRED,
        },
    }


def format_report(payload):
    lines = [
        f"durability bench @ {payload['keys']} writes "
        f"(batches of {payload['batch_size']})"
    ]
    for mode_key, stats in payload["write_throughput"].items():
        lines.append(
            f"{mode_key:>20s}  {stats['ops_per_sec']:>12,.0f} ops/s  "
            f"({stats['retention_vs_wal_off']:.0%} of no-WAL)"
        )
    for row in payload["recovery"]:
        lines.append(
            f"recovery @ tail {row['wal_tail_records']:>6d}: "
            f"{row['recovery_seconds']:.3f}s "
            f"({row['replay_frames_per_sec']:,.0f} frames/s replayed)"
        )
    return "\n".join(lines)


def headline(payload):
    """Group commit keeps >= 50% of no-WAL writes."""
    return [
        benchkit.row(
            "group_commit_retention",
            payload["summary"]["group_commit_retention"],
            ">=",
            GROUP_COMMIT_RETENTION_REQUIRED,
            drift=True,
        )
    ]


@pytest.mark.perf
def test_durability_bench_headline():
    payload = run_durability_bench(num_keys=8_000)
    assert benchkit.finish(payload, headline, format_report, RESULT_FILE) == 0


def main(argv=None) -> int:
    parser = benchkit.parser("Durability bench (PR 6).")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument("--batch-size", type=int, default=BATCH_SIZE)
    args = parser.parse_args(argv)
    payload = run_durability_bench(num_keys=args.keys, batch_size=args.batch_size)
    return benchkit.finish(payload, headline, format_report, RESULT_FILE, args.write)


if __name__ == "__main__":
    raise SystemExit(main())
