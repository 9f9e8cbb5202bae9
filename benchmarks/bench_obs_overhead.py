"""Observability overhead suite (PR 3).

Proves the telemetry layer's zero-cost-when-disabled claim on the PR 2
perf-suite hot paths (single-key lookups on every index family); the
committed result is ``BENCH_PR3.json`` at the repo root.

With no :class:`~repro.obs.runtime.Telemetry` installed, each
instrumented lookup pays exactly one module-global read plus an
``is None`` branch (the ``active_tracer()`` gate).  Wall-clock A/B runs
of the same code path are dominated by machine noise at the <5% level,
so the headline bound is established deterministically instead: the
gate cost is timed directly in a tight loop (loop overhead subtracted)
and divided by each family's measured per-lookup time.  That
*gate share* must stay at or below 5% for every family.

The suite also reports measured throughput with telemetry off, with a
metrics registry installed, and with full tracing (sampled op spans
into an in-memory sink) — the honest price of turning telemetry *on*.
The price of sampled distributed tracing over the wire is measured, not
gated (docs/observability.md, *Overhead budget*).

Every run checks the absolute bound and nothing else: a share's
denominator is the system's own speed, so a drift rule against the
committed file would fail a PR for making lookups faster.  ``--write``
rewrites the committed file::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--write]

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q
"""

import benchkit
import pytest
from benchkit import best_of as _best_of

from repro.art.tree import ART
from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.dualstage.index import DualStageIndex, StaticEncoding
from repro.fst.trie import FST
from repro.hybridtrie.tree import HybridTrie
from repro.obs import MetricsRegistry, Telemetry, active, active_tracer

DEFAULT_KEYS = 4_000
OVERHEAD_BOUND = 0.05          # disabled-telemetry gate share per lookup
TRACE_SAMPLE_EVERY = 64        # op-span sampling in the traced mode
RESULT_FILE = benchkit.REPO_ROOT / "BENCH_PR3.json"


def measure_gate_ns(iterations=200_000, runs=5):
    """Cost of one disabled-telemetry probe: ``active_tracer()`` + branch.

    Timed in a tight loop with the bare-loop overhead subtracted, so the
    result is the marginal per-lookup price every instrumented hot path
    pays when no telemetry is installed.
    """
    indices = range(iterations)

    def probed():
        for _ in indices:
            if active_tracer() is not None:  # pragma: no cover - off here
                raise AssertionError("telemetry unexpectedly installed")

    def bare():
        for _ in indices:
            pass

    probed_time = _best_of(runs, probed)
    bare_time = _best_of(runs, bare)
    return max(0.0, (probed_time - bare_time) / iterations * 1e9)


def _build_lookup_loops(num_keys):
    """One ``() -> None`` lookup loop per family, plus its probe count."""
    pairs, probes = benchkit.int_data(num_keys)
    byte_pairs, byte_probes = benchkit.byte_data(max(1000, num_keys // 4))

    tree = BPlusTree.bulk_load(pairs, LeafEncoding.SUCCINCT)
    adaptive = AdaptiveBPlusTree.bulk_load_adaptive(pairs)
    dual = DualStageIndex.bulk_load(pairs, StaticEncoding.SUCCINCT)
    art = ART.from_sorted(byte_pairs)
    fst = FST(byte_pairs)
    trie = HybridTrie(byte_pairs)

    return {
        "bptree_succinct": (
            lambda: [tree.lookup(key) for key in probes], len(probes)),
        "bptree_adaptive": (
            lambda: [adaptive.lookup(key) for key in probes], len(probes)),
        "dualstage": (
            lambda: [dual.lookup(key) for key in probes], len(probes)),
        "art": (
            lambda: [art.lookup(key) for key in byte_probes], len(byte_probes)),
        "fst": (
            lambda: [fst.lookup(key) for key in byte_probes], len(byte_probes)),
        "hybridtrie": (
            lambda: [trie.lookup(key) for key in byte_probes], len(byte_probes)),
    }


def run_suite(num_keys=DEFAULT_KEYS, runs=3):
    """Run every family in every mode; returns the BENCH_PR3.json payload."""
    assert active() is None, "telemetry must not be installed for the baseline"
    loops = _build_lookup_loops(num_keys)
    gate_ns = measure_gate_ns()
    families = {}

    for family, (loop, total_ops) in loops.items():
        off_time = _best_of(runs, loop)

        with Telemetry(registry=MetricsRegistry(), tracer=None):
            metrics_time = _best_of(runs, loop)

        with Telemetry.with_memory_trace(op_sample_every=TRACE_SAMPLE_EVERY):
            traced_time = _best_of(runs, loop)

        off_ns_per_op = off_time / total_ops * 1e9
        families[family] = {
            "off_ops_per_sec": round(total_ops / off_time, 1),
            "metrics_ops_per_sec": round(total_ops / metrics_time, 1),
            "traced_ops_per_sec": round(total_ops / traced_time, 1),
            "off_ns_per_op": round(off_ns_per_op, 1),
            "gate_share": round(gate_ns / off_ns_per_op, 4),
            "metrics_overhead": round(metrics_time / off_time - 1.0, 4),
            "traced_overhead": round(traced_time / off_time - 1.0, 4),
        }

    return {
        "suite": "PR3 observability overhead suite",
        "keys": num_keys,
        "gate_ns": round(gate_ns, 2),
        "overhead_bound": OVERHEAD_BOUND,
        "trace_sample_every": TRACE_SAMPLE_EVERY,
        "families": families,
    }


def format_report(payload):
    lines = [
        f"obs overhead suite @ {payload['keys']} keys  "
        f"(disabled-telemetry gate: {payload['gate_ns']:.1f} ns/lookup)"
    ]
    for family, stats in payload["families"].items():
        lines.append(
            f"{family:18s} off {stats['off_ops_per_sec']:>12,.0f} ops/s  "
            f"gate {stats['gate_share']:>6.2%}  "
            f"metrics {stats['metrics_overhead']:>+7.1%}  "
            f"traced {stats['traced_overhead']:>+7.1%}"
        )
    return "\n".join(lines)


def headline(payload):
    """Gate share <= 5% on every family."""
    return [
        benchkit.row(f"{family}.gate_share", stats["gate_share"], "<=", OVERHEAD_BOUND)
        for family, stats in payload["families"].items()
    ]


@pytest.mark.perf
def test_obs_overhead_headline():
    payload = run_suite(num_keys=4_000)
    assert benchkit.finish(payload, headline, format_report, RESULT_FILE) == 0


def main(argv=None) -> int:
    parser = benchkit.parser("Observability overhead suite (PR 3).")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    args = parser.parse_args(argv)
    payload = run_suite(num_keys=args.keys)
    return benchkit.finish(payload, headline, format_report, RESULT_FILE, args.write)


if __name__ == "__main__":
    raise SystemExit(main())
