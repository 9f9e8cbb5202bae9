"""The bench kit: one row schema, one checker, one report over BENCH_*.json."""

import json

import pytest

from tests.helpers import REPO_ROOT, load_bench

benchkit = load_bench("benchkit")

#: Committed file -> (bench module, the function that states its rows).
SUITES = {
    "BENCH_PR2.json": ("bench_perf_suite", "headline"),
    "BENCH_PR3.json": ("bench_obs_overhead", "headline"),
    "BENCH_PR6.json": ("bench_durability", "headline"),
    "BENCH_PR7.json": ("bench_net", "headline"),
    "BENCH_PR9.json": ("bench_replication", "headline"),
    "BENCH_PAPER.json": ("bench_paper", "headline"),
}


def write(tmp_path, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))


def suite(*rows):
    return {"suite": "s", "headline": list(rows)}


class TestCheck:
    def test_value_past_its_bound_is_flagged_not_raised(self):
        rows = [
            benchkit.row("speedup", 1.1, ">=", 2.0),
            benchkit.row("share", 0.07, "<=", 0.05),
            benchkit.row("lost", 1, "==", 0),
            benchkit.row("fine", 3.0, ">=", 2.0),
            benchkit.row("context", 42),
        ]
        failures = benchkit.check(rows)
        assert len(failures) == 3
        assert "speedup = 1.1, requires >= 2" in failures[0]
        assert [benchkit.verdict(entry) for entry in rows] == [False, False, False, True, None]

    def test_a_numpy_value_past_its_bound_is_flagged_too(self):
        import numpy as np

        rows = [benchkit.row("ratio", np.mean([0.9, 0.94]), "<=", 0.7)]
        assert benchkit.verdict(rows[0]) is False
        assert len(benchkit.check(rows)) == 1

    def test_drift_only_reads_rows_the_committed_file_marks(self):
        committed = [
            benchkit.row("ratio", 4.0, drift=True),
            benchkit.row("share", 0.01, "<=", 0.05),
            benchkit.row("gone", 2.0, drift=True),
        ]
        rows = [benchkit.row("ratio", 2.9), benchkit.row("share", 0.04, "<=", 0.05)]
        within = [benchkit.row("ratio", 2.8), benchkit.row("gone", 9.0)]
        assert benchkit.check_drift(within, committed) == []
        failures = benchkit.check_drift(rows, committed)
        assert len(failures) == 1 and "gone: missing" in failures[0]
        failures = benchkit.check_drift([benchkit.row("ratio", 2.7), *within[1:]], committed)
        assert len(failures) == 1 and "ratio: 2.7 fell below 2.8" in failures[0]

    def test_a_cost_ratio_drifts_by_rising_not_by_falling(self):
        committed = [benchkit.row("cost", 10.0, "<=", 40.0, drift=True)]
        for value in (2.0, 10.0, 13.0):
            assert benchkit.check_drift([benchkit.row("cost", value)], committed) == []
        failures = benchkit.check_drift([benchkit.row("cost", 13.5)], committed)
        assert len(failures) == 1 and "cost: 13.5 rose above 13" in failures[0]


class TestFinish:
    @staticmethod
    def headline(payload):
        return [benchkit.row("speedup", payload["speedup"], ">=", 1.3, drift=True)]

    def finish(self, payload, result_file, write=False):
        return benchkit.finish(payload, self.headline, lambda p: "report", result_file, write)

    def test_baseline_twice_as_good_is_a_regression(self, tmp_path, capsys):
        result_file = tmp_path / "BENCH_PR9.json"
        committed = benchkit.stamp({"suite": "s", "speedup": 4.0}, self.headline)
        result_file.write_text(json.dumps(committed))
        assert self.finish({"suite": "s", "speedup": 2.0}, result_file) == 1
        assert "REGRESSION: speedup: 2 fell below 2.8" in capsys.readouterr().out
        assert self.finish({"suite": "s", "speedup": 3.0}, result_file) == 0

    def test_violated_bound_exits_1_with_or_without_a_committed_file(self, tmp_path, capsys):
        assert self.finish({"suite": "s", "speedup": 1.0}, tmp_path / "BENCH_PR9.json") == 1
        assert "REGRESSION: speedup = 1, requires >= 1.3" in capsys.readouterr().out

    def test_committed_file_is_rewritten_only_on_write(self, tmp_path):
        result_file = tmp_path / "BENCH_PR9.json"
        assert self.finish({"suite": "s", "speedup": 2.0}, result_file) == 0
        assert not result_file.exists()
        assert self.finish({"suite": "s", "speedup": 2.0}, result_file, write=True) == 0
        before = result_file.read_text()
        assert benchkit.load(result_file)["headline"][0]["value"] == 2.0
        assert self.finish({"suite": "s", "speedup": 1.9}, result_file) == 0
        assert self.finish({"suite": "s", "speedup": 1.0}, result_file, write=True) == 1
        assert result_file.read_text() == before

    def test_caller_failures_fail_the_run(self, tmp_path, capsys):
        code = benchkit.finish(
            {"suite": "s", "speedup": 2.0},
            self.headline,
            lambda p: "report",
            tmp_path / "BENCH_PR9.json",
            False,
            ["campaign lost keys"],
        )
        assert code == 1
        assert "REGRESSION: campaign lost keys" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["BENCH_PR3.json"])
    def test_a_faster_system_does_not_fail_an_overhead_share(self, tmp_path, name):
        """Halve the denominator: every share doubles, all still under 5%.

        The parent's per-bench drift rule (25% / 75% over the committed
        share) failed exactly this — a PR that made lookups faster.
        """
        module = load_bench(SUITES[name][0])
        headline, report = module.headline, module.format_report

        def with_shares(scale):
            payload = json.loads((REPO_ROOT / name).read_text())
            for stats in payload["families"].values():
                stats["gate_share"] = 0.01 * scale
                stats["off_ns_per_op"] /= scale
            return benchkit.stamp(payload, headline)

        result_file = tmp_path / name
        result_file.write_text(json.dumps(with_shares(1)))
        assert benchkit.finish(with_shares(2), headline, report, result_file, False) == 0
        assert benchkit.finish(with_shares(6), headline, report, result_file, False) == 1


class TestCollect:
    def test_known_suite_rows_carry_their_own_bounds(self, tmp_path):
        write(tmp_path, "BENCH_PR12.json", suite(benchkit.row("speedup", 3.5, ">=", 2.0)))
        rows, errors = benchkit.collect(tmp_path)
        assert errors == []
        (entry,) = rows
        assert entry["ok"] is True
        assert entry["file"] == "BENCH_PR12.json"
        assert (entry["metric"], entry["op"], entry["bound"]) == ("speedup", ">=", 2.0)

    def test_violated_bound_is_flagged_not_raised(self, tmp_path):
        write(tmp_path, "BENCH_PR12.json", suite(benchkit.row("speedup", 1.1, ">=", 2.0)))
        rows, errors = benchkit.collect(tmp_path)
        assert errors == []
        assert rows[0]["ok"] is False

    def test_malformed_files_become_errors(self, tmp_path):
        (tmp_path / "BENCH_PR50.json").write_text("{not json")
        write(tmp_path, "BENCH_PR51.json", ["no", "suite"])
        write(tmp_path, "BENCH_PR52.json", {"suite": "no headline at all"})
        write(tmp_path, "BENCH_PR53.json", {"suite": "pre-kit dict", "headline": {"x": 1}})
        write(tmp_path, "BENCH_PR54.json", {"suite": "no rows", "headline": []})
        write(tmp_path, "BENCH_PR55.json", suite(benchkit.row("x", 1, "<", 2)))
        write(tmp_path, "BENCH_PR56.json", suite({"metric": "x", "value": 1}))
        rows, errors = benchkit.collect(tmp_path)
        assert rows == []
        assert [error.split(":")[0] for error in errors] == [
            f"BENCH_PR{number}.json" for number in range(50, 57)
        ]
        assert "unknown op '<'" in errors[5]

    def test_files_sort_by_pr_number(self, tmp_path):
        # 12 vs 101 sorts numerically, not lexicographically.
        write(tmp_path, "BENCH_PR101.json", {**suite(benchkit.row("x", 1)), "suite": "one-oh-one"})
        write(tmp_path, "BENCH_PR12.json", {**suite(benchkit.row("x", 1)), "suite": "twelve"})
        rows, _errors = benchkit.collect(tmp_path)
        assert [entry["suite"] for entry in rows] == ["twelve", "one-oh-one"]

    def test_the_paper_file_is_collected_after_the_numbered_ones(self, tmp_path):
        write(tmp_path, "BENCH_PAPER.json", suite(benchkit.row("fig15.inversions", 0, "==", 0)))
        write(tmp_path, "BENCH_PR12.json", suite(benchkit.row("speedup", 3.5, ">=", 2.0)))
        write(tmp_path, "BENCH_OTHER.json", suite(benchkit.row("ignored", 1, ">=", 2)))
        rows, errors = benchkit.collect(tmp_path)
        assert errors == []
        assert [entry["file"] for entry in rows] == ["BENCH_PR12.json", "BENCH_PAPER.json"]
        assert rows[1]["ok"] is True

    def test_a_malformed_paper_file_is_reported_not_raised(self, tmp_path, capsys):
        write(tmp_path, "BENCH_PR12.json", suite(benchkit.row("speedup", 3.5, ">=", 2.0)))
        (tmp_path / "BENCH_PAPER.json").write_text('{"suite": "paper", "headline": [{"metric"')
        rows, errors = benchkit.collect(tmp_path)
        assert [entry["file"] for entry in rows] == ["BENCH_PR12.json"]
        assert len(errors) == 1 and errors[0].startswith("BENCH_PAPER.json: unreadable")
        assert benchkit.main(tmp_path) == 1
        assert "ERROR: BENCH_PAPER.json: unreadable" in capsys.readouterr().out


class TestCommittedArtifacts:
    def test_repo_root_results_are_all_clean(self):
        """The committed BENCH_PR*.json must satisfy their own bounds."""
        rows, errors = benchkit.collect(REPO_ROOT)
        assert errors == []
        assert {entry["file"] for entry in rows} == set(SUITES)
        checked = [entry for entry in rows if entry["ok"] is not None]
        assert [entry for entry in checked if not entry["ok"]] == []
        assert len(checked) == 121  # 12 over the numbered suites, 109 paper rows

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_bench_headline_reproduces_its_committed_rows(self, name):
        """No measuring: the bench and its baseline agree on the row shape."""
        module_name, function = SUITES[name]
        payload = json.loads((REPO_ROOT / name).read_text())
        committed = payload["headline"]
        assert getattr(load_bench(module_name), function)(payload) == committed

    def test_only_same_run_ratios_are_drift_checked(self):
        rows, _errors = benchkit.collect(REPO_ROOT)
        drifting = {entry["file"] for entry in rows if entry.get("drift")}
        assert drifting == {"BENCH_PR2.json", "BENCH_PR6.json", "BENCH_PAPER.json"}


class TestCli:
    def test_check_passes_on_clean_root(self, tmp_path, capsys):
        write(tmp_path, "BENCH_PR12.json", suite(benchkit.row("speedup", 3.5, ">=", 2.0)))
        write(tmp_path, "BENCH_PAPER.json", suite(benchkit.row("tab1.ratio", 0.3, "<=", 0.45)))
        assert benchkit.main(tmp_path) == 0
        out = capsys.readouterr().out
        assert "BENCH_PAPER.json  [s]" in out
        assert "2 bound(s) checked, 0 failed, 0 file error(s)" in out

    def test_check_fails_on_violation_and_malformed(self, tmp_path, capsys):
        write(tmp_path, "BENCH_PR12.json", suite(benchkit.row("speedup", 1.0, ">=", 2.0)))
        assert benchkit.main(tmp_path) == 1
        out = capsys.readouterr().out
        assert "FAIL (requires >= 2)" in out and "1 failed" in out
        (tmp_path / "BENCH_PR12.json").write_text("{broken")
        assert benchkit.main(tmp_path) == 1
        assert "ERROR: BENCH_PR12.json: unreadable" in capsys.readouterr().out
