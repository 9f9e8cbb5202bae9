"""Hybrid B+-tree experiments: Figures 12, 13, 14, 15, 16, 17.

Shared plumbing: an OSM-like (or consecutive) dataset, the index variants
of Section 5.2 (Gapped / Packed / Succinct single-encoding baselines, the
adaptive AHI-BTree, the offline pre-trained tree, and the Dual-Stage
baseline), and the interval runner.  Every experiment returns both the
paper-shaped rows/series and the raw :class:`RunResult` objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bptree.hybrid import AdaptiveBPlusTree
from repro.bptree.leaves import LeafEncoding
from repro.bptree.tree import BPlusTree
from repro.core.access import AccessType
from repro.core.budget import MemoryBudget
from repro.core.trained import train_offline
from repro.dualstage.index import DualStageIndex
from repro.harness.runner import IntKeyIndexAdapter, RunResult, run_operations
from repro.sim.costmodel import CostModel
from repro.workloads.datasets import consecutive_keys, osm_like_keys
from repro.workloads.distributions import zipf_indices
from repro.workloads.spec import WorkloadSpec, w1_sequence, w2, w4, w5_sequence, w11, w12, w13
from repro.workloads.stream import generate_phase

DEFAULT_LEAF_CAPACITY = 64  # smaller leaves -> more leaves at laptop scale


def scaled_manager_config(
    budget: Optional[MemoryBudget] = None,
    skip_min: int = 5,
    skip_max: int = 100,
    max_sample_size: int = 1_500,
    epsilon: float = 0.10,
    delta: float = 0.10,
) -> "ManagerConfig":
    """Adaptation-manager knobs rescaled to laptop-size experiments.

    The paper's defaults (skip in [50, 500], epsilon = delta = 5%) are
    tuned for 2M-leaf indexes and 50M-query phases; at 10^5 keys per
    phase they would never complete a single sampling phase.  This keeps
    the control loop identical but shortens the phases proportionally.
    """
    from repro.bptree.hybrid import BTREE_ENCODING_ORDER
    from repro.core.manager import ManagerConfig

    return ManagerConfig(
        encoding_order=BTREE_ENCODING_ORDER,
        budget=budget or MemoryBudget.unbounded(),
        initial_skip_length=skip_min,
        skip_min=skip_min,
        skip_max=skip_max,
        max_sample_size=max_sample_size,
        epsilon=epsilon,
        delta=delta,
    )


def _pairs_from(keys: np.ndarray) -> List[Tuple[int, int]]:
    return [(int(key), index) for index, key in enumerate(keys)]


def _pretrain(
    tree: AdaptiveBPlusTree,
    training_keys: Sequence[int],
    budget: Optional[MemoryBudget],
) -> int:
    """Offline training (Section 3.2): replay a historic key trace, rank
    the touched leaves, expand best-first under the budget.

    Without an explicit budget, training may expand at most up to twice
    the compacted size — an unbounded trained tree would simply converge
    to the all-Gapped tree on broad traces.
    """
    tree.manager.disable()
    if budget is None:
        budget = MemoryBudget.absolute(2 * tree.size_bytes())
    trace = []
    for key in training_keys:
        leaf, _ = tree.find_leaf(int(key))
        trace.append((leaf, AccessType.READ))
    return train_offline(tree, trace, LeafEncoding.GAPPED, budget)


def build_btree_variants(
    pairs: List[Tuple[int, int]],
    training_keys: Optional[Sequence[int]] = None,
    budget: Optional[MemoryBudget] = None,
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    include: Sequence[str] = ("gapped", "packed", "succinct", "ahi", "pretrained"),
    config_kwargs: Optional[Dict] = None,
) -> Dict[str, object]:
    """The Section 5.2 index lineup over one dataset.

    ``config_kwargs`` forwards extra knobs to :func:`scaled_manager_config`
    (experiments with very short phases shrink the sampling loop further).
    """
    config_kwargs = config_kwargs or {}
    variants: Dict[str, object] = {}
    for name in include:
        if name == "gapped":
            variants[name] = BPlusTree.bulk_load(
                pairs, LeafEncoding.GAPPED, leaf_capacity=leaf_capacity
            )
        elif name == "packed":
            variants[name] = BPlusTree.bulk_load(
                pairs, LeafEncoding.PACKED, leaf_capacity=leaf_capacity
            )
        elif name == "succinct":
            variants[name] = BPlusTree.bulk_load(
                pairs, LeafEncoding.SUCCINCT, leaf_capacity=leaf_capacity
            )
        elif name == "ahi":
            variants[name] = AdaptiveBPlusTree.bulk_load_adaptive(
                pairs,
                leaf_capacity=leaf_capacity,
                manager_config=scaled_manager_config(budget, **config_kwargs),
            )
        elif name == "pretrained":
            tree = AdaptiveBPlusTree.bulk_load_adaptive(
                pairs,
                leaf_capacity=leaf_capacity,
                manager_config=scaled_manager_config(budget, **config_kwargs),
            )
            if training_keys is not None:
                _pretrain(tree, training_keys, budget)
            else:
                tree.manager.disable()
            variants[name] = tree
        elif name in ("dualstage-succinct", "dualstage-packed"):
            encoding = (
                LeafEncoding.SUCCINCT if name == "dualstage-succinct" else LeafEncoding.PACKED
            )
            # The paper's Figure 17 setup: the dynamic stage holds the
            # latest-inserted 5% of all data; merges trigger above that.
            split = max(1, int(len(pairs) * 0.95))
            index = DualStageIndex.bulk_load(
                pairs[:split], encoding, merge_ratio=0.10
            )
            for key, value in pairs[split:]:
                index.insert(key, value)
            variants[name] = index
        else:
            raise ValueError(f"unknown index variant {name!r}")
    return variants


def _run_workload_over_variants(
    variants: Dict[str, object],
    keys: np.ndarray,
    workload: WorkloadSpec,
    interval_ops: int,
    cost_model: Optional[CostModel] = None,
    seed: int = 1,
) -> Dict[str, RunResult]:
    """Run the same pre-generated operation stream against every variant."""
    cost_model = cost_model or CostModel()
    phase_operations = [
        generate_phase(keys, phase, rng=np.random.default_rng(seed + index), phase_index=index)
        for index, phase in enumerate(workload.phases)
    ]
    results: Dict[str, RunResult] = {}
    for name, index in variants.items():
        adapter = IntKeyIndexAdapter(index)
        result = RunResult()
        for operations in phase_operations:
            run_operations(adapter, operations, cost_model, interval_ops, result)
        results[name] = result
    return results


# ----------------------------------------------------------------------
# Figure 12: latency over time across W1.1 -> W1.2 -> W1.3 (+ final sizes)
# ----------------------------------------------------------------------
def experiment_fig12(
    num_keys: int = 100_000,
    ops_per_phase: int = 120_000,
    interval_ops: int = 10_000,
    training_ops: int = 30_000,
    seed: int = 0,
) -> Dict:
    """The headline timeline: adaptive vs single-encoding trees over the
    three-phase W1 workload on the OSM dataset."""
    rng = np.random.default_rng(seed)
    keys = osm_like_keys(num_keys, rng)
    pairs = _pairs_from(keys)
    training_keys = keys[zipf_indices(num_keys, training_ops, alpha=1.0, rng=rng)]
    variants = build_btree_variants(pairs, training_keys=training_keys)
    workload = w1_sequence(num_ops=ops_per_phase)
    results = _run_workload_over_variants(variants, keys, workload, interval_ops, seed=seed + 1)
    return {
        "series": {name: result.series("modeled_ns_per_op") for name, result in results.items()},
        "sizes": {
            name: (result.final_index_bytes, result.final_aux_bytes)
            for name, result in results.items()
        },
        "results": results,
        "adaptation_events": variants["ahi"].manager.events.as_dicts(),
        "intervals_per_phase": ops_per_phase // interval_ops,
    }


# ----------------------------------------------------------------------
# Figure 13: space-performance trade-off under C = P * S
# ----------------------------------------------------------------------
def experiment_fig13(
    num_keys: int = 100_000,
    num_ops: int = 120_000,
    interval_ops: int = 20_000,
    r_exponent: float = 1.0,
    seed: int = 0,
) -> Dict:
    """Average latency, final size, and the cost function C = P * S^r for
    W1.2 and W1.3 across the index lineup."""
    rng = np.random.default_rng(seed)
    keys = osm_like_keys(num_keys, rng)
    pairs = _pairs_from(keys)
    rows = []
    for workload_factory, label in ((w12, "W1.2"), (w13, "W1.3")):
        # Train the offline variant on the *same* distribution it will be
        # evaluated under (the paper's trained tree knows its workload).
        workload = workload_factory(num_ops)
        read_mix = workload.phases[0].mix[0]
        from repro.workloads.distributions import indices_for

        training_keys = keys[
            indices_for(
                read_mix.distribution,
                num_keys,
                num_ops // 4,
                rng=rng,
                **read_mix.distribution_params(),
            )
        ]
        variants = build_btree_variants(pairs, training_keys=training_keys)
        results = _run_workload_over_variants(
            variants, keys, workload_factory(num_ops), interval_ops, seed=seed + 2
        )
        for name, result in results.items():
            latency = result.modeled_ns_per_op
            size = result.final_total_bytes
            cost = latency * (size ** r_exponent)
            rows.append((label, name, round(latency, 1), size, round(cost / 1e9, 3)))
    return {
        "headers": ["workload", "index", "modeled_ns_per_op", "total_bytes", "cost_C/1e9"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Figure 14: skew sweep over the Zipf parameter alpha
# ----------------------------------------------------------------------
def experiment_fig14(
    num_keys: int = 60_000,
    num_ops: int = 60_000,
    alphas: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6),
    interval_ops: int = 20_000,
    include: Sequence[str] = ("gapped", "packed", "succinct", "ahi", "pretrained"),
    seed: int = 0,
) -> Dict:
    """Latency and size vs workload skew; the adaptive tree's win grows
    with alpha and a break-even against Succinct appears at low skew."""
    rng = np.random.default_rng(seed)
    keys = osm_like_keys(num_keys, rng)
    pairs = _pairs_from(keys)
    rows = []
    for alpha in alphas:
        training_keys = keys[zipf_indices(num_keys, num_ops // 4, alpha=alpha, rng=rng)]
        variants = build_btree_variants(pairs, training_keys=training_keys, include=include)
        results = _run_workload_over_variants(
            variants, keys, w11(alpha=alpha, num_ops=num_ops), interval_ops, seed=seed + 3
        )
        for name, result in results.items():
            rows.append(
                (
                    round(alpha, 2),
                    name,
                    round(result.modeled_ns_per_op, 1),
                    result.final_total_bytes,
                )
            )
    return {
        "headers": ["alpha", "index", "modeled_ns_per_op", "total_bytes"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Figure 15: memory-budget sweep
# ----------------------------------------------------------------------
def experiment_fig15(
    num_keys: int = 50_000,
    num_ops: int = 100_000,
    budget_fractions: Sequence[float] = (0.35, 0.45, 0.55, 0.70, 0.85, 1.0),
    interval_ops: int = 20_000,
    seed: int = 0,
) -> Dict:
    """AHI-BTree under increasing absolute memory budgets on consecutive
    keys (the paper's Figure 15 uses 50M consecutive 64-bit keys).

    Budgets are expressed as fractions of the all-Gapped tree size; the
    rows report modeled latency, final size, and the share of leaves that
    ended up expanded."""
    keys = consecutive_keys(num_keys)
    pairs = _pairs_from(keys)
    gapped_size = BPlusTree.bulk_load(
        pairs, LeafEncoding.GAPPED, leaf_capacity=DEFAULT_LEAF_CAPACITY
    ).size_bytes()
    succinct_size = BPlusTree.bulk_load(
        pairs, LeafEncoding.SUCCINCT, leaf_capacity=DEFAULT_LEAF_CAPACITY
    ).size_bytes()
    workload = w11(alpha=1.0, num_ops=num_ops)
    rows = []
    for fraction in budget_fractions:
        budget_bytes = int(gapped_size * fraction)
        tree = AdaptiveBPlusTree.bulk_load_adaptive(
            pairs,
            leaf_capacity=DEFAULT_LEAF_CAPACITY,
            manager_config=scaled_manager_config(MemoryBudget.absolute(budget_bytes)),
        )
        results = _run_workload_over_variants(
            {"ahi": tree}, keys, workload, interval_ops, seed=seed + 4
        )
        result = results["ahi"]
        counts = tree.encoding_counts()
        expanded = counts.get(LeafEncoding.GAPPED, 0) + counts.get(LeafEncoding.PACKED, 0)
        rows.append(
            (
                budget_bytes,
                round(result.modeled_ns_per_op, 1),
                result.final_index_bytes,
                round(expanded / max(1, tree.num_leaves), 3),
            )
        )
    return {
        "headers": ["budget_bytes", "modeled_ns_per_op", "index_bytes", "expanded_leaf_share"],
        "rows": rows,
        "gapped_bytes": gapped_size,
        "succinct_bytes": succinct_size,
    }


# ----------------------------------------------------------------------
# Figure 16: write-dominated then scan-dominated phases
# ----------------------------------------------------------------------
def experiment_fig16(
    num_keys: int = 60_000,
    ops_per_phase: int = 80_000,
    interval_ops: int = 10_000,
    seed: int = 0,
) -> Dict:
    """W5.1 (80% inserts) then W5.2 (80% scans) on the OSM dataset:
    eager expansions during the write phase, compactions afterwards."""
    rng = np.random.default_rng(seed)
    keys = osm_like_keys(num_keys, rng)
    pairs = _pairs_from(keys)
    # Figure 16 plots very short intervals (100k queries in the paper),
    # so the sampling loop is tightened further for responsiveness.
    variants = build_btree_variants(
        pairs,
        include=("gapped", "packed", "succinct", "ahi"),
        config_kwargs={"skip_min": 2, "skip_max": 40, "max_sample_size": 800},
    )
    workload = w5_sequence(num_ops=ops_per_phase)
    results = _run_workload_over_variants(variants, keys, workload, interval_ops, seed=seed + 5)
    ahi = results["ahi"]
    return {
        "series": {name: result.series("modeled_ns_per_op") for name, result in results.items()},
        "size_series": {
            name: result.series("index_bytes") for name, result in results.items()
        },
        "expansions": ahi.series("expansions"),
        "compactions": ahi.series("compactions"),
        "results": results,
        "adaptation_events": variants["ahi"].manager.events.as_dicts(),
        "intervals_per_phase": ops_per_phase // interval_ops,
    }


# ----------------------------------------------------------------------
# Figure 17: AHI-BTree vs the Dual-Stage baseline
# ----------------------------------------------------------------------
def experiment_fig17(
    num_keys: int = 100_000,
    num_ops: int = 100_000,
    interval_ops: int = 20_000,
    seed: int = 0,
) -> Dict:
    """Space and performance of AHI-BTree vs Dual-Stage under W2
    (lognormal writes + uniform reads) and W4 (YCSB zipf read/scan)."""
    keys = consecutive_keys(num_keys)
    pairs = _pairs_from(keys)
    rows = []
    for workload_factory, label in ((w2, "W2"), (w4, "W4")):
        variants = build_btree_variants(
            pairs,
            include=(
                "gapped",
                "packed",
                "succinct",
                "ahi",
                "dualstage-succinct",
                "dualstage-packed",
            ),
        )
        results = _run_workload_over_variants(
            variants, keys, workload_factory(num_ops), interval_ops, seed=seed + 6
        )
        for name, result in results.items():
            rows.append(
                (
                    label,
                    name,
                    round(result.modeled_ns_per_op, 1),
                    result.final_total_bytes,
                )
            )
    return {
        "headers": ["workload", "index", "modeled_ns_per_op", "total_bytes"],
        "rows": rows,
    }
