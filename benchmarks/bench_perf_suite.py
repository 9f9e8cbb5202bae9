"""Perf suite for the batched operation layer (PR 2).

Measures single-call vs batched throughput (ops/sec) for every index
family and writes the machine-readable ``BENCH_PR2.json`` at the repo
root.  The headline claim: sorted-batch lookups are at least 2x faster
than per-key loops on at least two families, because the batch API
amortizes tree descent (shared-prefix resumption), sampling-gate
drains, and counter updates.

Regression checking compares *speedup ratios* (batched / single), not
absolute ops/sec — ratios are stable across machines while raw
throughput is not.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py --keys 20000
    PYTHONPATH=src python benchmarks/bench_perf_suite.py \
        --keys 4000 --check BENCH_PR2.json --tolerance 0.30

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_suite.py -q
"""

import argparse
import json
import random
import time
from pathlib import Path

import pytest

from repro.art.tree import terminated
from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.dualstage.index import DualStageIndex, StaticEncoding
from repro.fst.trie import FST

DEFAULT_KEYS = 20_000
SPEEDUP_FAMILIES_REQUIRED = 2
SPEEDUP_REQUIRED = 2.0
REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_PR2.json"


def _best_of(runs, func):
    """Fastest wall-clock of ``runs`` executions (noise floor, not mean)."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(single, batched, total_ops, runs=3):
    single_time = _best_of(runs, single)
    batched_time = _best_of(runs, batched)
    return {
        "single_ops_per_sec": round(total_ops / single_time, 1),
        "batched_ops_per_sec": round(total_ops / batched_time, 1),
        "speedup": round(single_time / batched_time, 3),
    }


def _int_data(num_keys, seed=0x5EED):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(num_keys * 4), num_keys))
    pairs = [(key, key * 3 + 1) for key in keys]
    probes = sorted(
        rng.choice(keys) if rng.random() < 0.8 else rng.randrange(num_keys * 4)
        for _ in range(num_keys)
    )
    return pairs, probes


def _byte_data(num_keys, seed=0xBEEF):
    rng = random.Random(seed)
    words = set()
    while len(words) < num_keys:
        words.add(bytes(rng.randrange(97, 123) for _ in range(rng.randrange(4, 14))))
    keys = sorted(terminated(word) for word in words)
    pairs = [(key, index) for index, key in enumerate(keys)]
    probes = sorted(
        rng.choice(keys)
        if rng.random() < 0.8
        else terminated(bytes(rng.randrange(97, 123) for _ in range(6)))
        for _ in range(num_keys)
    )
    return pairs, probes


def run_suite(num_keys=DEFAULT_KEYS):
    """Run every family; returns the BENCH_PR2.json payload."""
    families = {}

    pairs, probes = _int_data(num_keys)

    tree = BPlusTree.bulk_load(pairs, LeafEncoding.SUCCINCT)
    families["bptree_succinct"] = _measure(
        lambda: [tree.lookup(key) for key in probes],
        lambda: tree.lookup_many(probes),
        len(probes),
    )

    adaptive = AdaptiveBPlusTree.bulk_load_adaptive(pairs)
    families["bptree_adaptive"] = _measure(
        lambda: [adaptive.lookup(key) for key in probes],
        lambda: adaptive.lookup_many(probes),
        len(probes),
    )

    dual = DualStageIndex.bulk_load(pairs, StaticEncoding.SUCCINCT)
    families["dualstage"] = _measure(
        lambda: [dual.lookup(key) for key in probes],
        lambda: dual.lookup_many(probes),
        len(probes),
    )

    byte_pairs, byte_probes = _byte_data(max(1000, num_keys // 4))

    fst = FST(byte_pairs)
    families["fst"] = _measure(
        lambda: [fst.lookup(key) for key in byte_probes],
        lambda: fst.lookup_many(byte_probes),
        len(byte_probes),
    )

    inserts = {}
    fresh_pairs = [(key * 2 + 1, key) for key in range(num_keys // 2)]

    def single_insert_tree():
        target = BPlusTree(LeafEncoding.GAPPED)
        for key, value in fresh_pairs:
            target.insert(key, value)

    def batched_insert_tree():
        target = BPlusTree(LeafEncoding.GAPPED)
        target.insert_many(fresh_pairs)

    inserts["bptree_gapped"] = _measure(
        single_insert_tree, batched_insert_tree, len(fresh_pairs)
    )

    def single_insert_dual():
        target = DualStageIndex(StaticEncoding.SUCCINCT)
        for key, value in fresh_pairs:
            target.insert(key, value)

    def batched_insert_dual():
        target = DualStageIndex(StaticEncoding.SUCCINCT)
        target.insert_many(fresh_pairs)

    inserts["dualstage"] = _measure(
        single_insert_dual, batched_insert_dual, len(fresh_pairs)
    )

    return {
        "suite": "PR2 batched-operation perf suite",
        "keys": num_keys,
        "lookups": families,
        "inserts": inserts,
    }


def format_report(payload):
    lines = [f"perf suite @ {payload['keys']} keys"]
    for section in ("lookups", "inserts"):
        lines.append(f"-- {section} (sorted batches) --")
        for family, stats in payload[section].items():
            lines.append(
                f"{family:18s} single {stats['single_ops_per_sec']:>12,.0f} ops/s  "
                f"batched {stats['batched_ops_per_sec']:>12,.0f} ops/s  "
                f"speedup {stats['speedup']:.2f}x"
            )
    return "\n".join(lines)


def check_headline(payload):
    """The acceptance claim: >= 2x batched lookups on >= 2 families."""
    fast = [
        family
        for family, stats in payload["lookups"].items()
        if stats["speedup"] >= SPEEDUP_REQUIRED
    ]
    assert len(fast) >= SPEEDUP_FAMILIES_REQUIRED, (
        f"only {fast} reached a {SPEEDUP_REQUIRED}x batched-lookup speedup; "
        f"need {SPEEDUP_FAMILIES_REQUIRED} families"
    )
    return fast


def check_against_baseline(payload, baseline, tolerance):
    """Fail on speedup-ratio regressions beyond ``tolerance``.

    Only ratios are compared (machine-independent); families present in
    the baseline but missing from the current run count as regressions.
    """
    failures = []
    for section in ("lookups", "inserts"):
        for family, stats in baseline.get(section, {}).items():
            current = payload.get(section, {}).get(family)
            if current is None:
                failures.append(f"{section}/{family}: missing from current run")
                continue
            floor = stats["speedup"] * (1.0 - tolerance)
            if current["speedup"] < floor:
                failures.append(
                    f"{section}/{family}: speedup {current['speedup']:.2f}x fell "
                    f"below {floor:.2f}x (baseline {stats['speedup']:.2f}x "
                    f"- {tolerance:.0%} tolerance)"
                )
    return failures


@pytest.mark.perf
def test_perf_suite_headline():
    payload = run_suite(num_keys=4_000)
    print(format_report(payload))
    fast = check_headline(payload)
    assert fast  # at least the headline families exist


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Batched-ops perf suite (PR 2).")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument(
        "--out",
        type=Path,
        default=RESULT_FILE,
        help=f"result JSON path (default {RESULT_FILE})",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip writing the result JSON"
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="baseline JSON to compare speedup ratios against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed relative speedup regression vs the baseline (default 0.30)",
    )
    args = parser.parse_args(argv)
    payload = run_suite(num_keys=args.keys)
    print(format_report(payload))
    check_headline(payload)
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        failures = check_against_baseline(payload, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print(f"no speedup regressions vs {args.check} (tolerance {args.tolerance:.0%})")
    if not args.no_write:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
