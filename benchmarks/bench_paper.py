"""One verdict per paper figure: the reproduced shapes as checked rows.

What this repo reproduces from the paper is *shapes* — who wins, by what
factor, where the crossover falls (DESIGN.md §2).  ``PAPER`` states each
of them once: the experiment, the sizes it is judged at, and a function
from the experiment's result to ``benchkit`` rows whose values are
orderings, ratios, inversion counts, event counts and byte sizes — never
a wall-clock time (``*_modeled_ns`` is cost-model output, a function of
structural counters only).  Every row repeats exactly across processes
except ``fig18``'s, which run real threads and so carry bounds and no
``==``.  EXPERIMENTS.md cites these rows per figure::

    PYTHONPATH=src python benchmarks/bench_paper.py [fig15 tab1 ...]  # judge all (~2.5 min) or some
    PYTHONPATH=src python benchmarks/bench_paper.py --write           # and rewrite BENCH_PAPER.json
    PYTHONPATH=src python -m pytest benchmarks/bench_paper.py -k fig15

A strict ``a < c * b`` is the row ``a_over_b <= c`` (equal floats are the
only difference); a strict ordering with no constant is an inversion
count ``== 0`` and an integer ``n > 0`` is ``n >= 1``, both exact.  The
rows functions name metrics without the figure; ``rows_of`` prefixes it.
"""

from collections import namedtuple
from dataclasses import replace

import benchkit
import numpy as np
import pytest
from benchkit import row

from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.core.heuristics import make_threshold_heuristic
from repro.harness.__main__ import EXPERIMENTS, render
from repro.harness.experiments import scaled_manager_config
from repro.harness.runner import IntKeyIndexAdapter, RunResult, run_operations
from repro.sim.costmodel import CostModel
from repro.workloads.datasets import osm_like_keys
from repro.workloads.distributions import uniform_indices, zipf_indices
from repro.workloads.spec import OpKind, w11, w51
from repro.workloads.stream import Operation, generate_phase

RESULT_FILE = benchkit.REPO_ROOT / "BENCH_PAPER.json"
DISTRIBUTIONS = ("zipf", "normal", "lognormal", "uniform")


# --- Row vocabulary ---
def unsorted(*values):
    """Adjacent pairs that fall: 0 iff ``values == sorted(values)``."""
    return sum(1 for left, right in zip(values, values[1:]) if left > right)


def not_rising(*values):
    """Adjacent pairs that do not rise: 0 iff ``a < b < c ...`` strictly."""
    return sum(1 for left, right in zip(values, values[1:]) if left >= right)


def between(metric, value, low, high):
    return [row(f"{metric}_lo", value, ">=", low), row(f"{metric}_hi", value, "<=", high)]


def column(result, value, *key):
    """``{key column(s): value column}`` over the result's table rows."""
    if len(key) == 1:
        return {entry[key[0]]: entry[value] for entry in result["rows"]}
    return {tuple(entry[k] for k in key): entry[value] for entry in result["rows"]}


# --- Sampling, storage and encoding micro-figures ---
def rows_fig2(result):
    size, true, sampled = (column(result, c, 0, 1) for c in (2, 3, 4))  # keyed (epsilon, k)
    gap = {key: true[key] - sampled[key] for key in true}
    ks = (250, 1000)
    return [
        # Quadratic growth in 1/epsilon.
        row("sample_size_2pct_over_10pct", size["2%", 1000] / size["10%", 1000], ">=", 15),
        # The sampled top-k mass approaches the true mass as epsilon shrinks ...
        row("mass_gap_inversions", sum(unsorted(gap["2%", k], gap["10%", k]) for k in ks), "==", 0),
        # ... and the paper's operating point (5%) loses only a small share.
        row("min_mass_recovered_at_5pct",
            min(sampled["5%", k] / true["5%", k] for k in ks), ">=", 0.75),
    ]


def rows_fig3(result):
    reads, writes = column(result, 1, 0), column(result, 2, 0)
    ssd, nvme, pmem = reads["Samsung 870 SSD"], reads["Samsung 970 NVMe"], reads["PMEM"]
    packed, plain = "DRAM compressed", "DRAM uncompressed"
    return [
        # SSD >> NVMe >> PMEM > DRAM-compressed > DRAM.
        row("ssd_over_nvme_read", ssd / nvme, ">=", 4),
        row("nvme_over_pmem_read", nvme / pmem, ">=", 4),
        row("memory_read_inversions", not_rising(reads[plain], reads[packed], pmem), "==", 0),
        row("compressed_write_inversions", not_rising(writes[plain], writes[packed]), "==", 0),
        # On-the-fly decompression beats every I/O tier.
        row("nvme_over_compressed_read", nvme / reads[packed], ">=", 5),
        # The real compressor saved real space on the 70%-occupancy page.
        *between("compression_ratio", result["compression_ratio"], 0.25, 0.75),
    ]


def rows_fig5(result):
    plain, filtered = column(result, 1, 0), column(result, 2, 0)  # overhead %, keyed by skip
    return [
        row("overhead_pct_skip0", plain[0], ">=", 40),  # paper: 61.9%
        row("overhead_pct_skip20", plain[20], "<=", 15),  # paper: 1.6%
        row("overhead_inversions", not_rising(plain[20], plain[5], plain[0]), "==", 0),
        # At the operating range the Bloom filter pays for itself.
        row("filtered_over_unfiltered_skip20", filtered[20] / plain[20], "<=", 1.05),
    ]


def rows_fig6(result):
    heap, table = column(result, 3, 0, 1), column(result, 4, 0, 1)  # ops, bytes; keyed (unique, k)
    return [
        # Heap work peaks around k ~ u/2 and drops again for k near u.
        row("heap_peak_inversions", not_rising(heap[10_000, 250], heap[10_000, 4_000]), "==", 0),
        row("heap_ops_k4000_over_k6000", heap[10_000, 4_000] / heap[10_000, 6_000], ">=", 0.8),
        # The sample map is linear in unique samples, independent of k.
        row("map_bytes_u10000_over_u1000", table[10_000, 250] / table[1_000, 250], "==", 10),
        # Single pass: at most two heap operations per unique sample.
        row("max_heap_ops_per_sample", max(ops / u for (u, _), ops in heap.items()), "<=", 2),
    ]


def rows_tab1(result):
    size, cost, wall = (column(result, c, 0) for c in (1, 2, 3))  # bytes, modeled ns, wall ns
    return [
        row("gapped_bytes", size["gapped"], "==", 4096),
        *between("packed_bytes", size["packed"], 2600, 3000),
        # Succinct is far smaller (paper: -73%), Packed in between.
        row("succinct_over_gapped_bytes", size["succinct"] / size["gapped"], "<=", 0.45,
            drift=True),
        row("size_order_inversions",
            not_rising(size["succinct"], size["packed"], size["gapped"]), "==", 0),
        # Modeled lookup cost: gapped ~= packed << succinct.
        row("gapped_packed_gap_modeled_ns", abs(cost["gapped"] - cost["packed"]), "<=", 5),
        row("succinct_over_gapped_latency", cost["succinct"] / cost["gapped"], ">=", 1.8,
            drift=True),
        row("lookup_cost_order_inversions",
            not_rising(max(cost["gapped"], cost["packed"]), cost["succinct"]), "==", 0),
        row("rows_without_wall_clock", sum(ns <= 0 for ns in wall.values()), "==", 0),
    ]


def rows_fig9(result):
    small = {name: ns for (size, name), ns in column(result, 2, 0, 1).items() if size == "small"}
    recode = [ns for name, ns in small.items() if "succinct" in name]
    return [
        # Every Succinct migration re-encodes; Gapped<->Packed is a memcpy.
        row("min_recode_over_memcpy",
            min(recode) / max(small["gapped->packed"], small["packed->gapped"]), ">=", 3),
        row("succinct_to_gapped_modeled_ns", small["succinct->gapped"], ">=", 1000),
    ]


def rows_tab2(result):
    size, cost = column(result, 1, 0), column(result, 2, 0)
    return [
        row("latency_order_inversions",
            not_rising(cost["ART"], cost["FST-dense"], cost["FST-sparse"]), "==", 0),
        row("sparse_over_art_bytes", size["FST-sparse"] / size["ART"], "<=", 1),
        row("dense_over_art_bytes", size["FST-dense"] / size["ART"], "<=", 1),
        row("sparse_over_art_latency", cost["FST-sparse"] / cost["ART"], ">=", 3),  # paper ~7x
    ]


def rows_tab4(result):
    logic, tracking = column(result, 1, 0), column(result, 2, 0)  # lookup-path lines
    return [
        row("btree_tracking_lines", tracking["B+-tree"], "==", 0),
        row("art_tracking_lines", tracking["ART"], "==", 0),
        row("fst_tracking_lines", tracking["FST"], "==", 0),
        # Integration is cheap: a handful of tracking lines on the lookup path.
        *between("ahi_btree_tracking_lines", tracking["AHI-BTree"], 1, 8),
        *between("ahi_trie_tracking_lines", tracking["AHI-Trie"], 1, 8),
        row("ahi_btree_extra_logic_lines", logic["AHI-BTree"] - logic["B+-tree"], "<=", 6),
    ]


def rows_appendix_fig2(result):
    true, sampled = column(result, 3, 0, 1), column(result, 4, 0, 1)  # keyed (distribution, eps)
    return [
        row("min_tight_over_loose_mass",
            min(sampled[d, "2%"] / sampled[d, "10%"] for d in DISTRIBUTIONS), ">=", 0.98),
        row("min_mass_recovered_at_2pct",
            min(sampled[d, "2%"] / true[d, "2%"] for d in DISTRIBUTIONS), ">=", 0.8),
    ]


def rows_appendix_fig5(result):
    pct = column(result, 2, 0, 1)  # overhead %, keyed (distribution, skip)
    return [
        # The hyperbolic skip amortization holds for every distribution.
        row("overhead_inversions",
            sum(not_rising(pct[d, 20], pct[d, 5], pct[d, 0]) for d in DISTRIBUTIONS), "==", 0),
        row("max_overhead_pct_skip20", max(pct[d, 20] for d in DISTRIBUTIONS), "<=", 15),
    ]


# --- Hybrid B+-tree figures ---
def rows_fig12(result):
    series, sizes, events = result["series"], result["sizes"], result["adaptation_events"]
    ahi, boundary = series["ahi"], result["intervals_per_phase"]
    phases = [ahi[start : start + boundary] for start in range(0, 3 * boundary, boundary)]
    succinct_mean = np.mean(series["succinct"])
    size = {name: index_bytes for name, (index_bytes, _aux_bytes) in sizes.items()}
    return [
        # Within each phase the adaptive tree's latency falls over time.
        row("phases_not_converging", sum(min(p[2:]) >= p[0] for p in phases), "==", 0),
        # Overall it sits between Gapped and Succinct on both axes, far below Succinct.
        row("latency_between_extremes_inversions",
            not_rising(np.mean(series["gapped"]), np.mean(ahi), succinct_mean), "==", 0),
        row("size_between_extremes_inversions",
            not_rising(size["succinct"], size["ahi"], size["gapped"]), "==", 0),
        row("phase1_tail_over_succinct_latency",
            np.mean(ahi[boundary - 3 : boundary]) / succinct_mean, "<=", 0.7, drift=True),
        row("ahi_over_gapped_bytes", size["ahi"] / size["gapped"], "<=", 0.7, drift=True),
        row("sampling_over_index_bytes", sizes["ahi"][1] / size["ahi"], "<=", 0.05),
        # The event log is the canonical timeline: epochs ascend, phases ran.
        row("event_epoch_inversions", unsorted(*(e["epoch"] for e in events)), "==", 0),
        row("event_expansions", sum(e["expansions"] for e in events), ">=", 1),
    ]


def rows_fig13(result):
    cost = column(result, 4, 0, 1)  # C = P * S, keyed (workload, index)
    best_w13 = min(c for (workload, _), c in cost.items() if workload == "W1.3")
    return [
        # The compact and adaptive variants beat the plain Gapped tree on C.
        *(row(f"{name}_cost_not_below_gapped",
              sum(not_rising(cost[w, name], cost[w, "gapped"]) for w in ("W1.2", "W1.3")), "==", 0)
          for name in ("succinct", "ahi", "pretrained")),
        # Under the highly skewed W1.3 the adaptive tree is best or tied-best.
        row("w13_ahi_over_best_cost", cost["W1.3", "ahi"] / best_w13, "<=", 1.4, drift=True),
    ]


def rows_fig14(result):
    lat, size = column(result, 2, 0, 1), column(result, 3, 0, 1)  # keyed (alpha, index)
    alphas = sorted({alpha for alpha, _ in lat})
    low, high, ahi = alphas[0], alphas[-1], [lat[alpha, "ahi"] for alpha in alphas]
    return [
        # The adaptive tree's latency falls with skew, step by step.
        row("ahi_latency_skew_inversions", not_rising(*reversed(ahi)), "==", 0),
        row("ahi_latency_high_over_low_skew", ahi[-1] / ahi[0], "<=", 1, drift=True),
        # At high skew: near Gapped speed at a fraction of its size.
        row("ahi_over_gapped_latency_high_skew", lat[high, "ahi"] / lat[high, "gapped"], "<=", 1.6),
        row("ahi_over_gapped_bytes_high_skew", size[high, "ahi"] / size[high, "gapped"], "<=", 0.6),
        # At low skew it does not collapse: within reach of Succinct.
        row("ahi_over_succinct_latency_low_skew",
            lat[low, "ahi"] / lat[low, "succinct"], "<=", 1.4),
    ]


def rows_fig15(result):
    budgets, lat, sizes, shares = zip(*result["rows"])
    return [
        # More budget -> more expanded leaves, never a smaller index.
        row("expanded_share_inversions", unsorted(*shares), "==", 0),
        row("index_bytes_inversions", unsorted(*sizes), "==", 0),
        row("latency_full_over_tight_budget", lat[-1] / lat[0], "<=", 1, drift=True),
        # Diminishing returns: the first budget step buys more than the last.
        row("diminishing_returns_inversions",
            unsorted(lat[-2] - lat[-1], lat[0] - lat[1]), "==", 0),
        row("max_bytes_over_budget", max(s / b for s, b in zip(sizes, budgets)), "<=", 1.05),
    ]


def rows_fig16(result):
    boundary, series = result["intervals_per_phase"], result["series"]
    compactions, sizes = result["compactions"], result["size_series"]["ahi"]
    writes = {name: sum(series[name][:boundary]) for name in ("ahi", "succinct")}  # W5.1
    return [
        # The write phase eagerly expands Succinct leaves ...
        row("write_phase_expansions", result["expansions"][boundary - 1], ">=", 1),
        # ... so the adaptive tree outpaces the Succinct tree during W5.1;
        row("ahi_over_succinct_write_latency",
            writes["ahi"] / writes["succinct"], "<=", 1, drift=True),
        # the scan phase compacts the no-longer-written leaves and the index shrinks.
        row("compactions", compactions[-1], ">=", 1),
        row("final_over_peak_bytes", sizes[-1] / max(sizes[boundary - 2 : boundary + 1]), "<=", 1),
        # The event log's compactions are the adapter's (eager expansions: the adapter's alone).
        row("event_log_compaction_mismatch",
            sum(e["compactions"] for e in result["adaptation_events"]) - compactions[-1], "==", 0),
    ]


def rows_fig17(result):
    lat, size = column(result, 2, 0, 1), column(result, 3, 0, 1)  # keyed (workload, index)
    ahi, ds_succinct = ("W4", "ahi"), ("W4", "dualstage-succinct")
    ds_packed = ("W4", "dualstage-packed")
    return [
        # W4 (skewed): Dual-Stage keeps *recent* keys fast, not *hot* ones.
        row("w4_ahi_over_ds_succinct_latency", lat[ahi] / lat[ds_succinct], "<=", 1, drift=True),
        row("w4_ahi_over_ds_packed_latency", lat[ahi] / lat[ds_packed], "<=", 1),
        row("w4_ahi_over_ds_packed_bytes", size[ahi] / size[ds_packed], "<=", 1),
        row("w4_ds_packed_over_ds_succinct_bytes", size[ds_packed] / size[ds_succinct], ">=", 2),
        # W2 (uniform): nobody leverages skew; AHI still lands between the extremes.
        row("w2_ahi_over_gapped_latency", lat["W2", "ahi"] / lat["W2", "gapped"], ">=", 1),
        row("w2_ahi_over_succinct_latency", lat["W2", "ahi"] / lat["W2", "succinct"], "<=", 1.1),
        row("w2_size_between_extremes_inversions",
            not_rising(size["W2", "succinct"], size["W2", "ahi"], size["W2", "gapped"]), "==", 0),
    ]


def rows_fig18(result):
    mops = column(result, 4, 0, 1, 2)  # modeled, keyed (workload, threads, strategy)
    workloads = ("W5.1 writes", "W5.2 reads")
    tls_over_gs = [mops[w, n, "TLS"] / mops[w, n, "GS"] for w in workloads for n in (2, 4, 8)]
    return [  # real threads: the lock events priced differ run to run
        row("min_tls_over_gs_modeled_mops", min(tls_over_gs), ">=", 0.95),
        row("min_tls_scaling_1_to_8_threads",
            min(mops[w, 8, "TLS"] / mops[w, 1, "TLS"] for w in workloads), ">=", 3.0),
        row("max_adaptations", max(entry[6] for entry in result["rows"]), ">=", 1),
    ]


# --- Hybrid Trie figures ---
def rows_fig19(result):
    lat, size = column(result, 2, 0, 1), column(result, 4, 0, 1)  # keyed (workload, index)
    points, workloads = "W6.1 points", ("W6.1 points", "W6.2 scans")

    def size_inversions(name):  # fst <= name < art, per workload
        triples = [(size[w, "fst"], size[w, name], size[w, "art"]) for w in workloads]
        return sum(unsorted(fst, mid) + not_rising(mid, art) for fst, mid, art in triples)

    return [
        # ART fastest/largest, FST smallest/slowest, the hybrids in between.
        row("art_not_faster_than_hybrid",
            sum(not_rising(lat[w, "art"], lat[w, "ahi-trie"]) for w in workloads), "==", 0),
        row("max_hybrid_over_fst_latency",
            max(lat[w, "ahi-trie"] / lat[w, "fst"] for w in workloads), "<=", 1.02),
        row("adaptive_size_inversions", size_inversions("ahi-trie"), "==", 0),
        row("pretrained_size_inversions", size_inversions("pretrained"), "==", 0),
        # On the skewed point workload the hybrid buys real latency over FST.
        row("points_hybrid_over_fst_latency",
            lat[points, "ahi-trie"] / lat[points, "fst"], "<=", 0.95, drift=True),
    ]


def rows_fig20(result):
    series, boundary = result["series"], result["intervals_per_phase"]
    ahi, fst, pretrained = series["ahi-trie"], series["fst"], series["pretrained"]
    expansions, events = result["expansions"], result["adaptation_events"]
    compactions = result["compactions"]
    final_bytes = {name: sizes[-1] for name, sizes in result["size_series"].items()}
    return [
        # Phase 1: expansions only (everything below c_art starts in FST).
        row("phase1_expansions", expansions[boundary - 1], ">=", 1),
        row("phase1_compactions", compactions[boundary - 1], "==", 0),
        row("phase2_expansions", expansions[-1] - expansions[boundary - 1], ">=", 1),
        # Unbounded: at these sizes phase 2 completes one adaptation phase
        # and compaction waits for two cold ones (EXPERIMENTS.md, Fig. 20).
        row("phase2_compactions", compactions[-1] - compactions[boundary - 1]),
        # The adaptive trie ends phase 1 faster than it began, and the run faster than FST.
        row("phase1_end_over_start_latency", ahi[boundary - 1] / ahi[0], "<=", 1, drift=True),
        row("final_hybrid_over_fst_latency", ahi[-1] / fst[-1], "<=", 1, drift=True),
        # It ends between the single-encoding extremes on both axes.
        row("final_latency_between_extremes_inversions",
            not_rising(series["art"][-1], ahi[-1], fst[-1]), "==", 0),
        row("final_size_between_extremes_inversions",
            not_rising(final_bytes["fst"], final_bytes["ahi-trie"], final_bytes["art"]), "==", 0),
        row("pretrained_stale_over_fresh_latency",
            pretrained[boundary + 1] / pretrained[boundary - 1], ">=", 1),
        # The skip length adapts; the event log carries the same timeline (no eager expansions).
        row("distinct_skip_lengths",
            len({skip for skip in result["skip_lengths"] if skip is not None}), ">=", 2),
        row("event_log_expansion_mismatch",
            sum(e["expansions"] for e in events) - expansions[-1], "==", 0),
        row("distinct_event_skip_lengths", len({e["skip_length_after"] for e in events}), ">=", 2),
    ]


# --- Ablations beyond the paper's figures ---
def _ablation(keys, phases, arms, headers, measure):
    """One adaptive B+-tree per arm over the same keys and operations: ``arms``
    maps an arm's name to its ``bulk_load_adaptive`` arguments, ``measure``
    reads the arm's columns off the tree, the run and the manager's counters."""
    pairs = [(int(key), index) for index, key in enumerate(keys)]
    rows = []
    for name, arguments in arms.items():
        arguments = {"leaf_capacity": 32, "manager_config": scaled_manager_config(), **arguments}
        tree = AdaptiveBPlusTree.bulk_load_adaptive(pairs, **arguments)
        adapter, result = IntKeyIndexAdapter(tree), RunResult()
        for operations in phases:
            run_operations(adapter, operations, CostModel(), 10_000, result)
        columns = measure(tree, result, tree.manager.counters)
        rows.append((name, round(result.modeled_ns_per_op, 1), *columns))
    return {"headers": ["arm", "modeled_ns_per_op", *headers], "rows": rows}


def _shifting_phases(keys, num_ops):
    """Two W1.1 phases with their skew centres at opposite ends of the keys."""
    spec = w11(alpha=1.2, num_ops=num_ops).phases[0]
    return [generate_phase(keys, spec, rng=1), generate_phase(keys[::-1].copy(), spec, rng=2)]


def ablation_skip(num_keys, num_ops):
    """Adaptive skip control against fixed skips at both extremes, across a shift."""
    keys = osm_like_keys(num_keys, np.random.default_rng(0))

    def arm(adaptive, low, high):
        config = scaled_manager_config(skip_min=low, skip_max=high)
        return {"manager_config": replace(config, adaptive_skip=adaptive)}

    return _ablation(
        keys, _shifting_phases(keys, num_ops),
        {"adaptive [2,50]": arm(True, 2, 50), "fixed skip=2": arm(False, 2, 2),
         "fixed skip=50": arm(False, 50, 50)},
        ["samples_taken", "migrations", "final_skip"],
        lambda tree, _, c: (c.sampled, c.expansions + c.compactions, tree.manager.skip_length),
    )


def rows_ablation_skip(result):
    adaptive, fast, slow = result["rows"]
    return [
        # The controller matches the best fixed arm with far fewer samples than the fast one.
        row("fixed_fast_over_adaptive_samples", fast[2] / adaptive[2], ">=", 1.5),
        row("adaptive_over_best_fixed_latency", adaptive[1] / min(fast[1], slow[1]), "<=", 1.15),
        row("adaptive_final_skip", adaptive[4], ">=", 3),  # off the minimum, 2
    ]


def ablation_eager(num_keys, num_ops):
    """Eager expand-on-insert of Succinct leaves (Section 5.2) on and off, under W5.1."""
    keys = osm_like_keys(num_keys, np.random.default_rng(0))
    return _ablation(
        keys, [generate_phase(keys, w51(alpha=1.0, num_ops=num_ops).phases[0], rng=1)],
        {"eager expansion (paper)": {"eager_insert_expansion": True},
         "no eager expansion": {"eager_insert_expansion": False}},
        ["eager_expansions", "succinct_writes", "final_bytes"],
        lambda tree, run, c: (c.eager_expansions, tree.counters.get("leaf_write:succinct"),
                              run.final_index_bytes),
    )


def rows_ablation_eager(result):
    eager, lazy = result["rows"]
    return [
        # Without it writes keep re-encoding Succinct leaves and the run is slower;
        row("lazy_over_eager_succinct_writes", lazy[3] / max(1, eager[3]), ">=", 5),
        row("eager_over_lazy_latency", eager[1] / lazy[1], "<=", 1, drift=True),
        # the price is memory (paper: +46% under low skew).
        row("eager_over_lazy_bytes", eager[4] / lazy[4], ">=", 1),
    ]


def ablation_history(num_keys, num_ops):
    """Cold classifications required before compaction: 1, the paper's 2, and 6."""
    keys = osm_like_keys(num_keys, np.random.default_rng(0))

    def arm(cold_phases):
        heuristic = make_threshold_heuristic(
            LeafEncoding.GAPPED, LeafEncoding.SUCCINCT, cold_phases_to_compact=cold_phases
        )
        return {"manager_config": replace(scaled_manager_config(), heuristic=heuristic)}

    return _ablation(
        keys, _shifting_phases(keys, num_ops),
        {"compact after 1 cold phase": arm(1), "compact after 2 (paper default)": arm(2),
         "compact after 6": arm(6)},
        ["migrations", "final_bytes"],
        lambda _, run, c: (c.expansions + c.compactions, run.final_index_bytes),
    )


def rows_ablation_history(result):
    one, two, six = result["rows"]
    return [
        # Patient compaction holds memory longer; hair-trigger compaction thrashes.
        row("patient_over_default_bytes", six[3] / two[3], ">=", 1),
        row("hair_trigger_extra_migrations", one[2] - two[2], ">=", 0),
    ]


def ablation_bloom(num_keys, num_ops):
    """The Bloom filter in front of the sample map, inside the full adaptation
    loop: half hot Zipf reads, half uniform cold reads (the one-off accesses
    the filter exists to reject)."""
    rng = np.random.default_rng(0)
    keys = osm_like_keys(num_keys, rng)
    hot = zipf_indices(num_keys, num_ops // 2, alpha=1.2, rng=rng)
    indices = np.concatenate((hot, uniform_indices(num_keys, num_ops // 2, rng=rng)))
    rng.shuffle(indices)

    def arm(use_bloom):
        config = replace(scaled_manager_config(), use_bloom_filter=use_bloom)
        return {"manager_config": config, "leaf_capacity": 16}

    return _ablation(
        keys, [[Operation(OpKind.READ, int(keys[index])) for index in indices]],
        {"with bloom filter": arm(True), "without bloom filter": arm(False)},
        ["map_updates", "bloom_rejections", "tracked_units", "sampler_bytes"],
        lambda tree, _, c: (c.map_updates, c.bloom_rejections, tree.manager.tracked_units,
                            tree.manager.size_bytes()),
    )


def rows_ablation_bloom(result):
    on, off = result["rows"]
    return [
        # The filter rejects one-off accesses, which keeps the sample map smaller.
        row("rejections", on[3], ">=", 1),
        row("map_updates_with_over_without", on[2] / off[2], "<=", 1),
        row("tracked_units_with_over_without", on[4] / off[4], "<=", 1),
    ]


# --- The table: name -> (experiment, the sizes it is judged at, rows(result)) ---
Figure = namedtuple("Figure", "experiment kwargs rows")
ABLATIONS = {"ablation-skip": ablation_skip, "ablation-eager": ablation_eager,
             "ablation-history": ablation_history, "ablation-bloom": ablation_bloom}
JUDGED_AT = {
    "fig2": (dict(num_items=500_000, workload_size=300_000, ks=(250, 1000),
                  epsilons=(0.02, 0.04, 0.05, 0.06, 0.08, 0.10)), rows_fig2),
    "fig3": ({}, rows_fig3),
    "fig5": (dict(num_keys=50_000, num_lookups=150_000,
                  skip_lengths=(0, 1, 2, 3, 4, 5, 10, 15, 20)), rows_fig5),
    "fig6": (dict(unique_sample_counts=(1_000, 2_000, 5_000, 10_000),
                  ks=(250, 500, 1_000, 2_000, 4_000, 6_000)), rows_fig6),
    "tab1": (dict(num_keys=60_000, num_lookups=30_000), rows_tab1),
    "fig9": (dict(small_keys=20_000, large_keys=100_000, migrations_per_pair=100), rows_fig9),
    "tab2": (dict(num_keys=60_000, num_lookups=20_000), rows_tab2),
    "fig12": (dict(num_keys=60_000, ops_per_phase=60_000, interval_ops=6_000, training_ops=15_000),
              rows_fig12),
    "fig13": (dict(num_keys=40_000, num_ops=50_000, interval_ops=10_000), rows_fig13),
    "fig14": (dict(num_keys=30_000, num_ops=40_000, alphas=(0.2, 0.6, 1.0, 1.4)), rows_fig14),
    "fig15": (dict(num_keys=30_000, num_ops=60_000,
                   budget_fractions=(0.35, 0.45, 0.55, 0.70, 0.85, 1.0)), rows_fig15),
    "fig16": (dict(num_keys=30_000, ops_per_phase=40_000, interval_ops=4_000), rows_fig16),
    "fig17": (dict(num_keys=50_000, num_ops=40_000, interval_ops=8_000), rows_fig17),
    "fig18": (dict(num_keys=20_000, ops_per_thread=4_000, thread_counts=(1, 2, 4, 8)), rows_fig18),
    "fig19": (dict(num_keys=8_000, num_ops=10_000, interval_ops=2_500, art_levels=8), rows_fig19),
    "fig20": (dict(num_keys=40_000, ops_per_phase=40_000, interval_ops=4_000), rows_fig20),
    "tab4": ({}, rows_tab4),
    "appendix-fig2": (dict(num_items=100_000, workload_size=150_000, k=500), rows_appendix_fig2),
    "appendix-fig5": (dict(num_keys=30_000, num_lookups=60_000, skip_lengths=(0, 5, 20)),
                      rows_appendix_fig5),
    "ablation-skip": (dict(num_keys=20_000, num_ops=40_000), rows_ablation_skip),
    "ablation-eager": (dict(num_keys=20_000, num_ops=30_000), rows_ablation_eager),
    "ablation-history": (dict(num_keys=20_000, num_ops=30_000), rows_ablation_history),
    "ablation-bloom": (dict(num_keys=30_000, num_ops=50_000), rows_ablation_bloom),
}
PAPER = {
    name: Figure({**EXPERIMENTS, **ABLATIONS}[name], kwargs, rows)
    for name, (kwargs, rows) in JUDGED_AT.items()
}


def rows_of(name, result):
    """``PAPER[name]``'s rows for one result, each metric prefixed by the figure."""
    return [dict(entry, metric=f"{name}.{entry['metric']}") for entry in PAPER[name].rows(result)]


def judge(name):
    """Run one figure at its judged sizes, print it, return its rows."""
    result = PAPER[name].experiment(**PAPER[name].kwargs)
    render(name, result)
    rows = rows_of(name, result)
    print("\n".join(benchkit.format_row(entry) for entry in rows))
    return rows


def committed_rows(name):
    """The rows ``BENCH_PAPER.json`` holds for one figure."""
    rows = benchkit.load(RESULT_FILE)["headline"] if RESULT_FILE.exists() else []
    return [entry for entry in rows if entry["metric"].split(".")[0] == name]


def headline(payload):
    return payload["headline"]


@pytest.mark.parametrize("name", list(PAPER))
def test_paper_figure(name):
    rows = judge(name)
    assert benchkit.check(rows) + benchkit.check_drift(rows, committed_rows(name)) == []


def main(argv=None) -> int:
    parser = benchkit.parser("The paper's figures and tables as checked rows (BENCH_PAPER.json).")
    names_help = "figures to judge again, the others keeping their committed rows (default: all of "
    parser.add_argument("names", nargs="*", help=f"{names_help}{', '.join(PAPER)})")
    args = parser.parse_args(argv)
    if unknown := [name for name in args.names if name not in PAPER]:
        parser.error(f"unknown figures: {', '.join(unknown)}")
    again = args.names or PAPER
    rows = [judge(name) if name in again else committed_rows(name) for name in PAPER]
    payload = {
        "suite": "paper figures and tables as checked rows",
        "judged_at": {name: figure.kwargs for name, figure in PAPER.items()},
        "headline": [entry for figure_rows in rows for entry in figure_rows],
    }
    report = f"\n{len(PAPER)} paper figures as {len(payload['headline'])} rows"
    return benchkit.finish(payload, headline, lambda _: report, RESULT_FILE, args.write)


if __name__ == "__main__":
    raise SystemExit(main())
