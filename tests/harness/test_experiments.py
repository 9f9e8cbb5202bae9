"""Smoke tests for every paper-experiment entry point (tiny scales).

``benchmarks/bench_paper.py`` judges the experiments at representative
scales; these tests only assert that each function executes, that its
headline *shape* claim holds even at toy scale, and that the table's rows
function accepts the result (``judged``: well-formed rows, not their
bounds — those hold at the judged sizes and are checked against the
committed ``BENCH_PAPER.json`` in ``test_paper_table.py``).

The multi-phase campaign tests (tens of seconds even at toy scale) are
marked ``slow``: the default lane deselects them via addopts while the
nightly/full CI lane runs everything with ``-m ""``.
"""


import json
import math

import pytest

from tests.helpers import load_bench

benchkit = load_bench("benchkit")
bench_paper = load_bench("bench_paper")
PAPER = bench_paper.PAPER


def judged(name, **sizes):
    """Run table entry ``name`` at tiny ``sizes`` (its other arguments as
    judged), check the form of its rows, return the result."""
    figure = PAPER[name]
    result = figure.experiment(**{**figure.kwargs, **sizes})
    rows = bench_paper.rows_of(name, result)
    metrics = [entry["metric"] for entry in rows]
    assert rows and len(set(metrics)) == len(metrics)
    for entry in rows:
        assert benchkit.ROW_KEYS <= entry.keys() and entry["op"] in benchkit.OPS
        assert entry["metric"].startswith(f"{name}.")
        assert math.isfinite(entry["value"]) and math.isfinite(entry["bound"])
    events = result.get("adaptation_events", [])
    assert json.loads(json.dumps(events)) == events  # JSON-safe as produced
    return result


def rows_by(result, **filters):
    headers = result["headers"]
    selected = []
    for row in result["rows"]:
        record = dict(zip(headers, row))
        if all(record.get(key) == value for key, value in filters.items()):
            selected.append(record)
    return selected


class TestMicroExperiments:
    def test_fig2_sample_sizes_shrink_with_epsilon(self):
        result = judged("fig2", num_items=20_000, workload_size=30_000)
        sizes = {(row[0], row[1]): row[2] for row in result["rows"]}
        assert sizes["5%", 250] > sizes["10%", 250]

    def test_fig3_device_ordering(self):
        result = judged("fig3")
        reads = {row[0]: row[1] for row in result["rows"]}
        assert reads["Samsung 870 SSD"] > reads["Samsung 970 NVMe"] > reads["PMEM"]
        assert reads["DRAM compressed"] > reads["DRAM uncompressed"]
        assert reads["PMEM"] > reads["DRAM compressed"]
        assert 0.2 < result["compression_ratio"] < 0.8

    def test_fig5_overhead_decreases_with_skip(self):
        result = judged("fig5", num_keys=5_000, num_lookups=20_000)
        rows = result["rows"]
        assert rows[0][1] > rows[-1][1]  # skip 0 costs more than skip 20

    def test_fig6_runs(self):
        result = judged("fig6", repetitions=2)
        assert len(result["rows"]) == 18  # every (unique samples, k) with k <= unique
        assert all(row[2] > 0 for row in result["rows"])

    def test_table1_ordering(self):
        result = judged("tab1", num_keys=5_000, num_lookups=3_000)
        sizes = {row[0]: row[1] for row in result["rows"]}
        modeled = {row[0]: row[2] for row in result["rows"]}
        assert sizes["succinct"] < sizes["packed"] < sizes["gapped"]
        assert modeled["succinct"] > modeled["gapped"]

    def test_fig9_recode_more_expensive(self):
        result = judged("fig9", small_keys=3_000, large_keys=6_000, migrations_per_pair=20)
        small_rows = rows_by(result, index_size="small")
        by_name = {row["migration"]: row["modeled_ns"] for row in small_rows}
        assert by_name["succinct->gapped"] > 3 * by_name["gapped->packed"]

    def test_table2_ordering(self):
        result = judged("tab2", num_keys=6_000, num_lookups=2_000)
        modeled = {row[0]: row[2] for row in result["rows"]}
        sizes = {row[0]: row[1] for row in result["rows"]}
        assert modeled["ART"] < modeled["FST-dense"] < modeled["FST-sparse"]
        assert sizes["FST-sparse"] < sizes["ART"]

    def test_table4_tracking_loc_small(self):
        result = judged("tab4")
        rows = {row[0]: row for row in result["rows"]}
        # The adaptive variants add only a handful of tracking lines.
        assert 0 < rows["AHI-BTree"][2] <= 8
        assert rows["B+-tree"][2] == 0


class TestBtreeExperiments:
    @pytest.mark.slow
    def test_fig12_adaptive_converges(self):
        result = judged(
            "fig12", num_keys=8_000, ops_per_phase=12_000, interval_ops=3_000, training_ops=3_000
        )
        ahi = result["series"]["ahi"]
        gapped = result["series"]["gapped"]
        succinct = result["series"]["succinct"]
        # Adaptive starts near succinct, ends far below it.
        assert ahi[-1] < 0.75 * succinct[-1]
        assert result["sizes"]["ahi"][0] < result["sizes"]["gapped"][0]

    def test_fig13_cost_function_rows(self):
        result = judged("fig13", num_keys=6_000, num_ops=8_000, interval_ops=4_000)
        assert len(result["rows"]) == 10  # 2 workloads x 5 indexes

    def test_fig14_skew_helps_adaptive(self):
        result = judged(
            "fig14", num_keys=6_000, num_ops=10_000, include=("gapped", "succinct", "ahi")
        )
        low = rows_by(result, alpha=0.2, index="ahi")[0]
        high = rows_by(result, alpha=1.4, index="ahi")[0]
        assert high["modeled_ns_per_op"] < low["modeled_ns_per_op"]

    def test_fig15_budget_monotone(self):
        result = judged("fig15", num_keys=5_000, num_ops=10_000)
        small, large = result["rows"][0], result["rows"][-1]
        assert small[2] <= large[2]  # index size grows with budget
        assert small[3] <= large[3]  # expanded share grows with budget

    @pytest.mark.slow
    def test_fig16_writes_then_scans(self):
        result = judged("fig16", num_keys=5_000, ops_per_phase=10_000, interval_ops=2_500)
        assert result["expansions"][-1] > 0
        assert result["compactions"][-1] > 0

    @pytest.mark.slow
    def test_fig17_ahi_beats_dualstage_on_skew(self):
        result = judged("fig17", num_keys=8_000, num_ops=8_000, interval_ops=4_000)
        w4_rows = {row[1]: row for row in result["rows"] if row[0] == "W4"}
        assert w4_rows["ahi"][2] < w4_rows["dualstage-succinct"][2]


class TestTrieExperiments:
    @pytest.mark.slow
    def test_fig19_tradeoff(self):
        result = judged("fig19", num_keys=3_000, num_ops=3_000, interval_ops=1_500, art_levels=4)
        points = {row[1]: row for row in result["rows"] if row[0] == "W6.1 points"}
        assert points["art"][2] < points["fst"][2]          # ART faster
        assert points["fst"][4] < points["art"][4]          # FST smaller
        assert points["ahi-trie"][2] < points["fst"][2]     # hybrid beats FST
        assert points["ahi-trie"][4] < points["art"][4]     # and is smaller than ART

    @pytest.mark.slow
    def test_fig20_adaptation_timeline(self):
        result = judged("fig20", num_keys=6_000, ops_per_phase=8_000, interval_ops=2_000)
        assert result["expansions"][-1] > 0
        ahi = result["series"]["ahi-trie"]
        fst = result["series"]["fst"]
        assert ahi[-1] < fst[-1]


class TestConcurrencyExperiment:
    def test_fig18_tls_not_slower_than_gs(self):
        result = judged("fig18", num_keys=3_000, ops_per_thread=500)
        by_key = {(row[0], row[2]): row for row in result["rows"] if row[1] == 2}
        for workload in ("W5.1 writes", "W5.2 reads"):
            gs = by_key[(workload, "GS")]
            tls = by_key[(workload, "TLS")]
            # Modeled throughput: TLS avoids the per-record lock.
            assert tls[4] >= gs[4] * 0.95


class TestAppendixExperiments:
    def test_appendix_fig2_distributions(self):
        result = judged("appendix-fig2", num_items=10_000, workload_size=15_000, k=100)
        distributions = {row[0] for row in result["rows"]}
        assert distributions == {"zipf", "normal", "lognormal", "uniform"}
        for row in result["rows"]:
            assert row[4] <= row[3] + 1e-9  # sampled mass never exceeds true

    def test_appendix_fig5_workloads(self):
        result = judged("appendix-fig5", num_keys=5_000, num_lookups=15_000)
        by_key = {(row[0], row[1]): row[2] for row in result["rows"]}
        for distribution in ("zipf", "normal", "lognormal", "uniform"):
            assert by_key[(distribution, 0)] > by_key[(distribution, 20)]


class TestAblations:
    @pytest.mark.parametrize("name", [name for name in PAPER if name.startswith("ablation-")])
    def test_every_arm_runs_and_the_switch_changes_something(self, name):
        result = judged(name, num_keys=3_000, num_ops=6_000)
        assert len(result["headers"]) == len(result["rows"][0])
        assert len({row[2:] for row in result["rows"]}) > 1
