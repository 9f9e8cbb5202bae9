"""Perf suite for the batched operation layer (PR 2).

Measures single-call vs batched throughput (ops/sec) for every index
family and writes the machine-readable ``BENCH_PR2.json`` at the repo
root.  The headline claim: sorted-batch lookups are at least 2x faster
than per-key loops on at least two families, because the batch API
amortizes tree descent (shared-prefix resumption), sampling-gate
drains, and counter updates.

The ``leaf_writes`` section prices a write into a Succinct leaf against
the same write into a Gapped one (same run, same bulk-loaded 0.70-fill
trees): what a PUT costs where the budget blocks eager expansion.

Every run checks those claims and the per-family *speedup ratios*
(batched / single — stable across machines, unlike raw ops/sec) against
the committed file (``benchkit``); ``--write`` rewrites it::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py --keys 4000
    PYTHONPATH=src python benchmarks/bench_perf_suite.py --write

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_suite.py -q
"""

import time

import benchkit
import pytest
from benchkit import best_of as _best_of

from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.dualstage.index import DualStageIndex
from repro.fst.trie import FST

DEFAULT_KEYS = 20_000
SPEEDUP_FAMILIES_REQUIRED = 2
SPEEDUP_REQUIRED = 2.0
RESULT_FILE = benchkit.REPO_ROOT / "BENCH_PR2.json"
#: A Succinct write over the same write into a Gapped leaf, through the
#: tree.  Measured 2.9-3.1 (overwrite: one packed field replaced, or the
#: others rebased below a new minimum) and 7.0-7.4 (insert: a field
#: spliced into the touched block, each later block shifted in its packed
#: buffer).  Each bound sits between that and the same run with the block
#: decoded and re-encoded instead: 6.0 when every overwrite re-encodes
#: its block, 13.6 when an insert re-encodes the touched one (14-15.5
#: before the splice kernel; 60-74 while every write re-encoded the leaf).
OVERWRITE_RATIO_LIMIT = 4.5
INSERT_RATIO_LIMIT = 10.0


def _measure(single, batched, total_ops, runs=3):
    single_time = _best_of(runs, single)
    batched_time = _best_of(runs, batched)
    return {
        "single_ops_per_sec": round(total_ops / single_time, 1),
        "batched_ops_per_sec": round(total_ops / batched_time, 1),
        "speedup": round(single_time / batched_time, 3),
    }


def _int_data(num_keys):
    pairs, probes = benchkit.int_data(num_keys)
    return pairs, sorted(probes)


def _byte_data(num_keys):
    pairs, probes = benchkit.byte_data(num_keys)
    return pairs, sorted(probes)


def _leaf_writes(pairs, runs=5):
    """Microseconds per ``update`` of a present key and per ``insert`` of a
    new one, through a tree bulk-loaded at 0.70 fill, per leaf encoding;
    plus the Succinct-over-Gapped ratios the headline bounds."""
    present = {key for key, _ in pairs}
    overwrites = [key for key, _ in pairs[::4]]
    # About 14 new keys a leaf: nowhere near a split, which is not a leaf write.
    fresh = [key + 1 for key, _ in pairs[::10] if key + 1 not in present]
    section = {}
    for encoding in (LeafEncoding.SUCCINCT, LeafEncoding.GAPPED):
        overwrite = insert = float("inf")
        for _ in range(runs):
            tree = BPlusTree.bulk_load(pairs, encoding)
            start = time.perf_counter()
            for key in overwrites:
                tree.update(key, 7)
            middle = time.perf_counter()
            for key in fresh:
                tree.insert(key, 7)
            end = time.perf_counter()
            overwrite = min(overwrite, (middle - start) / len(overwrites))
            insert = min(insert, (end - middle) / len(fresh))
        section[str(encoding)] = {
            "overwrite_us": round(overwrite * 1e6, 2),
            "insert_us": round(insert * 1e6, 2),
        }
    succinct, gapped = section["succinct"], section["gapped"]
    for write in ("overwrite", "insert"):
        section[f"succinct_{write}_over_gapped"] = round(
            succinct[f"{write}_us"] / gapped[f"{write}_us"], 2
        )
    return section


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

    dual = DualStageIndex.bulk_load(pairs, LeafEncoding.SUCCINCT)
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
        target = DualStageIndex(LeafEncoding.SUCCINCT)
        for key, value in fresh_pairs:
            target.insert(key, value)

    def batched_insert_dual():
        target = DualStageIndex(LeafEncoding.SUCCINCT)
        target.insert_many(fresh_pairs)

    inserts["dualstage"] = _measure(
        single_insert_dual, batched_insert_dual, len(fresh_pairs)
    )

    return {
        "suite": "PR2 batched-operation perf suite",
        "keys": num_keys,
        "lookups": families,
        "inserts": inserts,
        "leaf_writes": _leaf_writes(pairs),
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
    writes = payload["leaf_writes"]
    lines.append("-- leaf writes (through the tree, 0.70-fill leaves) --")
    for write in ("overwrite", "insert"):
        lines.append(
            f"{write:18s} succinct {writes['succinct'][f'{write}_us']:>8.2f} us  "
            f"gapped {writes['gapped'][f'{write}_us']:>8.2f} us  "
            f"ratio {writes[f'succinct_{write}_over_gapped']:.1f}x"
        )
    return "\n".join(lines)


def headline(payload):
    """>= 2x batched lookups on >= 2 families; a Succinct leaf write within
    its multiple of a Gapped one; every same-run ratio is drift-checked."""
    rows = [
        benchkit.row(f"{section}.{family}.speedup", stats["speedup"], drift=True)
        for section in ("lookups", "inserts")
        for family, stats in payload[section].items()
    ]
    fast = sum(stats["speedup"] >= SPEEDUP_REQUIRED for stats in payload["lookups"].values())
    rows.append(
        benchkit.row("lookups.families_at_2x", fast, ">=", SPEEDUP_FAMILIES_REQUIRED)
    )
    for write, limit in (("overwrite", OVERWRITE_RATIO_LIMIT), ("insert", INSERT_RATIO_LIMIT)):
        metric = f"succinct_{write}_over_gapped"
        rows.append(
            benchkit.row(
                f"leaf_writes.{metric}", payload["leaf_writes"][metric], "<=", limit, drift=True
            )
        )
    return rows


@pytest.mark.perf
def test_perf_suite_headline():
    payload = run_suite(num_keys=4_000)
    assert benchkit.finish(payload, headline, format_report, RESULT_FILE) == 0


def main(argv=None) -> int:
    parser = benchkit.parser("Batched-ops perf suite (PR 2).")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    args = parser.parse_args(argv)
    payload = run_suite(num_keys=args.keys)
    return benchkit.finish(payload, headline, format_report, RESULT_FILE, args.write)


if __name__ == "__main__":
    raise SystemExit(main())
