"""Perf suite for leaf writes (``BENCH_PR2.json``).

Prices a write into a Succinct leaf against the same write into a
Gapped one (same run, same bulk-loaded 0.70-fill trees): what a PUT
costs where the budget blocks eager expansion.  The headline bounds
each Succinct-over-Gapped ratio (the median of five same-run ratios)
and drift-checks it against the committed file (``benchkit``; same-run
ratios are stable across machines, unlike raw microseconds);
``--write`` rewrites it::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py --keys 4000
    PYTHONPATH=src python benchmarks/bench_perf_suite.py --write

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_suite.py -q
"""

import statistics
import time

import benchkit
import pytest

from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree

DEFAULT_KEYS = 20_000
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


def _leaf_writes(pairs, runs=5):
    """Microseconds per ``update`` of a present key and per ``insert`` of a
    new one, through a tree bulk-loaded at 0.70 fill, per leaf encoding;
    plus the Succinct-over-Gapped ratios the headline bounds.

    Each run times one Succinct tree, then one Gapped tree, and divides
    the two: each ratio is the median of the ``runs`` per-run ratios, so
    host load that lands on one half of one run moves one ratio of
    ``runs``, not the gated value.  Each encoding's microseconds are its
    best of ``runs``, printed for context."""
    present = {key for key, _ in pairs}
    overwrites = [key for key, _ in pairs[::4]]
    # About 14 new keys a leaf: nowhere near a split, which is not a leaf write.
    fresh = [key + 1 for key, _ in pairs[::10] if key + 1 not in present]
    encodings = (LeafEncoding.SUCCINCT, LeafEncoding.GAPPED)
    best = {encoding: [float("inf"), float("inf")] for encoding in encodings}
    ratios = ([], [])  # per run: overwrite, insert
    for _ in range(runs):
        run = {}
        for encoding in encodings:
            tree = BPlusTree.bulk_load(pairs, encoding)
            start = time.perf_counter()
            for key in overwrites:
                tree.update(key, 7)
            middle = time.perf_counter()
            for key in fresh:
                tree.insert(key, 7)
            end = time.perf_counter()
            run[encoding] = ((middle - start) / len(overwrites), (end - middle) / len(fresh))
            best[encoding] = [min(pair) for pair in zip(best[encoding], run[encoding])]
        for write, ratio in enumerate(ratios):
            ratio.append(run[LeafEncoding.SUCCINCT][write] / run[LeafEncoding.GAPPED][write])
    section = {
        str(encoding): {
            "overwrite_us": round(overwrite * 1e6, 2),
            "insert_us": round(insert * 1e6, 2),
        }
        for encoding, (overwrite, insert) in best.items()
    }
    for write, ratio in zip(("overwrite", "insert"), ratios):
        section[f"succinct_{write}_over_gapped"] = round(statistics.median(ratio), 2)
    return section


def run_suite(num_keys=DEFAULT_KEYS):
    """Returns the BENCH_PR2.json payload."""
    return {
        "suite": "leaf-write perf suite",
        "keys": num_keys,
        "leaf_writes": _leaf_writes(benchkit.int_data(num_keys)[0]),
    }


def format_report(payload):
    writes = payload["leaf_writes"]
    lines = [
        f"perf suite @ {payload['keys']} keys",
        "-- leaf writes (through the tree, 0.70-fill leaves) --",
    ]
    for write in ("overwrite", "insert"):
        lines.append(
            f"{write:18s} succinct {writes['succinct'][f'{write}_us']:>8.2f} us  "
            f"gapped {writes['gapped'][f'{write}_us']:>8.2f} us  "
            f"median ratio {writes[f'succinct_{write}_over_gapped']:.1f}x"
        )
    return "\n".join(lines)


def headline(payload):
    """A Succinct leaf write within its multiple of a Gapped one, each
    ratio drift-checked."""
    return [
        benchkit.row(
            f"leaf_writes.succinct_{write}_over_gapped",
            payload["leaf_writes"][f"succinct_{write}_over_gapped"],
            "<=",
            limit,
            drift=True,
        )
        for write, limit in (("overwrite", OVERWRITE_RATIO_LIMIT), ("insert", INSERT_RATIO_LIMIT))
    ]


@pytest.mark.perf
def test_perf_suite_headline():
    payload = run_suite(num_keys=4_000)
    assert benchkit.finish(payload, headline, format_report, RESULT_FILE) == 0


def main(argv=None) -> int:
    parser = benchkit.parser("Leaf-write perf suite.")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    args = parser.parse_args(argv)
    payload = run_suite(num_keys=args.keys)
    return benchkit.finish(payload, headline, format_report, RESULT_FILE, args.write)


if __name__ == "__main__":
    raise SystemExit(main())
