"""The divergent-replica ratio.

One machine-readable ``BENCH_PR9.json`` at the repo root.  On a mixed
point/scan workload served through the routed read path, a replica set
of divergently tuned copies (point-tuned, scan-tuned, balanced), each
read going to the copy whose affinity is its class, is compared with the
same number of ``balanced`` copies, which take reads in turn.  The ratio
is *modeled*: each leg's structural counter deltas priced through the
calibrated cost model.  The same run's wall-clock reads/s ratio is
printed beside it so the two orderings can be compared; neither is gated
yet (docs/replication.md).  That losing a replica loses
no acked write is the wire oracle's claim
(``tests/integration/test_wire_oracle.py``).

``--write`` rewrites the committed file::

    PYTHONPATH=src python benchmarks/bench_replication.py --keys 8000
    PYTHONPATH=src python benchmarks/bench_replication.py --write

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_replication.py -q
"""

import benchkit
import pytest

from repro.harness.experiments_replication import run_replication_comparison

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
    """Run both legs; returns the BENCH_PR9.json payload."""
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


def format_report(payload):
    lines = [
        f"replication bench @ {payload['keys']} keys "
        f"(factor {payload['replication_factor']})"
    ]
    for leg_name, leg in payload["legs"].items():
        lines.append(
            f"{leg_name:>9s}  profiles {'+'.join(leg['profiles']):<19s} "
            f"modeled {leg['modeled_ns_per_read']:>6.2f} ns/read  "
            f"size {leg['size_bytes'] / (1024 * 1024):.2f} MiB"
        )
    lines.append(
        f"divergent over identical: {payload['summary']['divergent_speedup']:.2f}x "
        f"modeled (paper context), {payload['summary']['wall_speedup']:.2f}x wall"
    )
    return "\n".join(lines)


def headline(payload):
    """The modeled and wall ratios, both context (no bound yet)."""
    return [
        benchkit.row("replication.divergent_speedup", payload["summary"]["divergent_speedup"]),
        benchkit.row("replication.wall_speedup", payload["summary"]["wall_speedup"]),
    ]


@pytest.mark.perf
def test_replication_bench_headline():
    payload = run_replication_bench(num_keys=8_000)
    assert benchkit.finish(payload, headline, format_report, RESULT_FILE) == 0


def main(argv=None) -> int:
    parser = benchkit.parser("Divergent replica bench (PR 9).")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument("--factor", type=int, default=REPLICATION_FACTOR)
    args = parser.parse_args(argv)
    payload = run_replication_bench(num_keys=args.keys, factor=args.factor)
    return benchkit.finish(payload, headline, format_report, RESULT_FILE, args.write)


if __name__ == "__main__":
    raise SystemExit(main())
