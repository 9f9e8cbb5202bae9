"""CLI and reporters: formats, the pinned JSON shape, and exit codes."""

import json

from repro.analysis.cli import main

import pytest

from tests.analysis.helpers import FIXTURES, REPO_ROOT

TRACE_SCHEMA = str(REPO_ROOT / "docs" / "trace_schema.json")
REPORT_KEYS = {"version", "tool", "paths", "rules", "findings", "summary"}


def _cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys is not None else ""
    return code, out


class TestExitCodes:
    def test_clean_fixture_exits_zero(self, capsys):
        code, out = _cli(
            str(FIXTURES / "ra004_good.py"),
            "--trace-schema",
            TRACE_SCHEMA,
            capsys=capsys,
        )
        assert code == 0
        assert "clean: 0 findings" in out

    def test_findings_exit_one(self, capsys):
        code, out = _cli(
            str(FIXTURES / "ra004_bad.py"),
            "--trace-schema",
            TRACE_SCHEMA,
            capsys=capsys,
        )
        assert code == 1
        assert "RA004" in out

    def test_missing_path_exits_two(self, capsys):
        code, _ = _cli(str(FIXTURES / "does_not_exist.py"), capsys=capsys)
        assert code == 2

    def test_unknown_rule_exits_two(self, capsys):
        code, _ = _cli(
            str(FIXTURES / "ra004_good.py"), "--select", "RA999", capsys=capsys
        )
        assert code == 2

    def test_select_limits_rules(self, capsys):
        # RA004 findings exist in ra004_bad.py, but RA001 alone sees none.
        code, _ = _cli(
            str(FIXTURES / "ra004_bad.py"), "--select", "RA001", capsys=capsys
        )
        assert code == 0

    def test_list_rules(self, capsys):
        code, out = _cli("--list-rules", capsys=capsys)
        assert code == 0
        for rule_id in ("RA001", "RA002", "RA004", "RA005", "RA006", "RA007"):
            assert rule_id in out
        # Retired ids stay retired: suppression comments name the live ones.
        assert "RA003" not in out and "RA008" not in out

    @pytest.mark.parametrize(
        "removed",
        [
            ["--cache"],
            ["--cache-dir", "d"],
            ["--changed-only"],
            ["--baseline", "b.json"],
            ["--write-baseline"],
            ["--output", "report.json"],
            ["--format", "sarif"],
        ],
    )
    def test_removed_flags_are_rejected(self, removed):
        # One run mode, one suppression mechanism, one machine format: a
        # stale CI line that still passes a deleted flag must fail loudly.
        with pytest.raises(SystemExit) as exit_info:
            main([str(FIXTURES / "ra004_good.py"), *removed])
        assert exit_info.value.code == 2


class TestJsonReport:
    def _report(self, capsys, path):
        code, out = _cli(
            str(path), "--format", "json", "--trace-schema", TRACE_SCHEMA, capsys=capsys
        )
        return code, json.loads(out)

    def test_json_report_shape_is_pinned(self, capsys):
        code, report = self._report(capsys, FIXTURES / "ra004_bad.py")
        assert code == 1
        assert set(report) == REPORT_KEYS
        assert report["version"] == 1 and report["tool"] == "repro.analysis"
        assert set(report["summary"]) == {"total", "suppressed", "by_rule"}
        assert report["summary"]["total"] == len(report["findings"]) > 0
        assert report["summary"]["by_rule"] == {"RA004": report["summary"]["total"]}
        assert all(set(rule) == {"id", "title", "rationale"} for rule in report["rules"])
        first = report["findings"][0]
        assert {key: first[key] for key in first if key != "message"} == {
            "rule": "RA004",
            "path": (FIXTURES / "ra004_bad.py").as_posix(),
            "line": 5,
            "col": 5,
            "symbol": "ra004_bad.publish",
        }
        assert first["message"].startswith("dynamically formatted name passed to .span()")

    def test_clean_json_report_validates(self, capsys):
        code, report = self._report(capsys, FIXTURES / "ra004_good.py")
        assert code == 0
        assert set(report) == REPORT_KEYS
        assert report["findings"] == []
        assert report["summary"] == {"total": 0, "suppressed": 0, "by_rule": {}}


class TestSuppressionGate:
    def test_unjustified_suppression_fails(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[RA001]\n")
        code, out = _cli(str(path), "--check-suppressions", capsys=capsys)
        assert code == 1
        assert "lacks a `-- justification`" in out

    def test_justified_but_stale_suppression_fails(self, tmp_path, capsys):
        # RA001 reports nothing on this line, so the suppression is dead
        # weight that would silently swallow a future real finding.
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[RA001] -- reviewed\n")
        code, out = _cli(str(path), "--check-suppressions", capsys=capsys)
        assert code == 1
        assert "stale suppression ignore[RA001]" in out

    def test_unknown_rule_suppression_fails(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[RA999] -- reviewed\n")
        code, out = _cli(str(path), "--check-suppressions", capsys=capsys)
        assert code == 1
        assert "unknown rule RA999" in out

    def test_live_tree_suppressions_pass(self, capsys):
        # Every suppression in src/repro is justified AND still matches
        # a finding its rule produces — the CI lint gate stays green.
        code, out = _cli(
            str(REPO_ROOT / "src" / "repro"),
            "--check-suppressions",
            "--trace-schema",
            TRACE_SCHEMA,
            capsys=capsys,
        )
        assert code == 0
        assert "suppression hygiene clean" in out

    def test_select_scopes_staleness(self, tmp_path, capsys):
        # A suppression for a rule excluded by --select is not judged.
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[RA001] -- reviewed\n")
        code, out = _cli(
            str(path),
            "--check-suppressions",
            "--select",
            "RA004",
            capsys=capsys,
        )
        assert code == 0
        assert "suppression hygiene clean" in out
