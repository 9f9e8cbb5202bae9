"""Sharded index service bench (PR 4).

Replays the same batched lookup + scan workload against a
:class:`~repro.service.router.ShardRouter` at 1/2/4/8 shards and writes
the machine-readable ``BENCH_PR4.json`` at the repo root.  The headline
claim: with 4 OLC shards the **modeled** aggregate lookup throughput is
at least 2x a single shard.  Wall-clock throughput is reported alongside
but not gated — Python's GIL caps real parallel speedup, so the modeled
figure (per-shard counter events priced by the cost model, aggregate
time = max over shards) carries the scalability claim, the same idiom
as the Figure-18 concurrency bench.

Every run checks that claim and the *modeled speedup ratio* at each
shard count (N shards / 1 shard — stable across machines, unlike raw
ops/sec) against the committed file (``benchkit``); ``--write``
rewrites it.

``--fault-campaign`` additionally runs a randomized online shard
split/merge campaign under fault injection and fails on any lost key::

    PYTHONPATH=src python benchmarks/bench_service.py --keys 4000 --fault-campaign
    PYTHONPATH=src python benchmarks/bench_service.py --write

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
"""

import random

import benchkit
import pytest

from repro.faults.injector import FaultInjector, InjectedFault
from repro.harness.experiments_service import experiment_service_bench
from repro.service.partition import PartitionError
from repro.service.router import ShardRouter

DEFAULT_KEYS = 20_000
HEADLINE_SHARDS = 4
HEADLINE_SPEEDUP_REQUIRED = 2.0
RESULT_FILE = benchkit.REPO_ROOT / "BENCH_PR4.json"


def run_service_bench(num_keys=DEFAULT_KEYS, family="olc", partitioning="hash"):
    """Run the shard-count sweep; returns the BENCH_PR4.json payload."""
    result = experiment_service_bench(
        num_keys=num_keys,
        num_lookups=max(1000, num_keys * 3 // 2),
        family=family,
        partitioning=partitioning,
    )
    columns = result["headers"]
    shards = {}
    for row in result["rows"]:
        entry = dict(zip(columns, row))
        shards[str(entry["shards"])] = {
            "wall_mops": entry["wall_Mops"],
            "modeled_mops": entry["modeled_Mops"],
            "modeled_speedup": entry["modeled_speedup"],
            "imbalance": entry["imbalance"],
            "scan_wall_mops": entry["scan_wall_Mops"],
        }
    return {
        "suite": "PR4 sharded index service bench",
        "keys": num_keys,
        "family": family,
        "partitioning": partitioning,
        "shards": shards,
        "headline": {
            "shards": HEADLINE_SHARDS,
            "modeled_speedup": shards[str(HEADLINE_SHARDS)]["modeled_speedup"],
            "required": HEADLINE_SPEEDUP_REQUIRED,
        },
    }


def run_fault_campaign(num_keys=5_000, rounds=60, seed=0xFA11):
    """Randomized online split/merge under fault injection.

    Every round attempts a split or a merge with faults armed at the
    ``service.*`` sites, then cross-checks a random sample of keys.
    Returns a summary; ``lost_keys`` must be zero.
    """
    rng = random.Random(seed)
    pairs = [(key * 2, key) for key in range(num_keys)]
    expected = dict(pairs)
    lost = attempted = completed = 0
    with ShardRouter.build(pairs, num_shards=2, partitioning="range") as router:
        with FaultInjector(site="service.*", rate=0.35, seed=seed) as injector:
            for _ in range(rounds):
                attempted += 1
                try:
                    if rng.random() < 0.5 and router.num_shards > 1:
                        router.merge_shards(rng.randrange(router.num_shards - 1))
                    else:
                        router.split_shard(rng.randrange(router.num_shards))
                    completed += 1
                except (InjectedFault, PartitionError):
                    pass
                for key in rng.sample(range(num_keys * 2), 50):
                    if router.get(key) != expected.get(key):
                        lost += 1
            router.verify()
            faults = injector.failures_injected
        final_shards = router.num_shards
        final = router.scan(-1, num_keys * 4)
    if sorted(expected.items()) != final:
        lost += abs(len(expected) - len(final)) or 1
    return {
        "rounds": attempted,
        "operations_completed": completed,
        "faults_injected": faults,
        "final_shards": final_shards,
        "lost_keys": lost,
    }


def format_report(payload):
    lines = [
        f"service bench @ {payload['keys']} keys "
        f"({payload['family']}, {payload['partitioning']} partitioning)"
    ]
    for shard_count, stats in payload["shards"].items():
        lines.append(
            f"{shard_count:>2s} shards  wall {stats['wall_mops']:>7.3f} Mops  "
            f"modeled {stats['modeled_mops']:>8.2f} Mops  "
            f"speedup {stats['modeled_speedup']:.2f}x  "
            f"imbalance {stats['imbalance']:.2f}"
        )
    return "\n".join(lines)


def headline(payload):
    """>= 2x modeled lookup throughput at 4 shards; every count is drift-checked."""
    rows = []
    for shard_count, stats in payload["shards"].items():
        gated = int(shard_count) == HEADLINE_SHARDS
        rows.append(
            benchkit.row(
                f"modeled_speedup@{shard_count}shards",
                stats["modeled_speedup"],
                ">=" if gated else None,
                HEADLINE_SPEEDUP_REQUIRED if gated else None,
                drift=True,
            )
        )
    return rows


@pytest.mark.perf
def test_service_bench_headline():
    payload = run_service_bench(num_keys=4_000)
    assert benchkit.finish(payload, headline, format_report, RESULT_FILE) == 0


@pytest.mark.faults
def test_service_fault_campaign_loses_nothing():
    summary = run_fault_campaign(num_keys=2_000, rounds=30)
    assert summary["faults_injected"] > 0
    assert summary["lost_keys"] == 0


def main(argv=None) -> int:
    parser = benchkit.parser("Sharded service bench (PR 4).")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument("--family", default="olc")
    parser.add_argument("--partitioning", default="hash")
    parser.add_argument(
        "--fault-campaign",
        action="store_true",
        help="also run the randomized split/merge fault campaign",
    )
    args = parser.parse_args(argv)
    payload = run_service_bench(
        num_keys=args.keys, family=args.family, partitioning=args.partitioning
    )
    failures = []
    if args.fault_campaign:
        summary = run_fault_campaign(num_keys=max(1000, args.keys // 4))
        print(
            f"fault campaign: {summary['rounds']} rounds, "
            f"{summary['operations_completed']} splits/merges completed, "
            f"{summary['faults_injected']} faults injected, "
            f"{summary['lost_keys']} lost keys"
        )
        if summary["lost_keys"]:
            failures.append("split/merge campaign lost keys")
    return benchkit.finish(
        payload, headline, format_report, RESULT_FILE, args.write, failures
    )


if __name__ == "__main__":
    raise SystemExit(main())
