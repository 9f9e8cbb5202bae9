"""Finding ordering, the rule registry, and suppression application."""

import pytest

from repro.analysis.core import (
    Finding,
    Rule,
    all_rule_ids,
    build_rules,
    register,
    run_rules,
)
from repro.analysis.loader import load_module
from repro.analysis.project import Project

from tests.analysis.helpers import FIXTURES


class TestRegistry:
    def test_all_six_rules_register(self):
        assert all_rule_ids() == ["RA001", "RA002", "RA004", "RA005", "RA006", "RA007"]

    def test_build_rules_selects(self):
        rules = build_rules(["RA004"])
        assert [rule.id for rule in rules] == ["RA004"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            build_rules(["RA999"])

    def test_register_rejects_missing_id(self):
        class Anonymous(Rule):
            def run(self, project):
                return iter(())

        with pytest.raises(ValueError):
            register(Anonymous)

    def test_register_rejects_duplicate_id(self):
        all_rule_ids()  # make sure the built-in rules are registered

        class Duplicate(Rule):
            id = "RA001"

            def run(self, project):
                return iter(())

        with pytest.raises(ValueError):
            register(Duplicate)


class TestFindings:
    def test_findings_sort_by_location(self):
        later = Finding(path="b.py", line=1, col=1, rule="RA001", message="m")
        earlier = Finding(path="a.py", line=9, col=9, rule="RA004", message="m")
        assert sorted([later, earlier]) == [earlier, later]

    def test_as_dict_round_trips_all_fields(self):
        finding = Finding(
            path="a.py", line=3, col=7, rule="RA002", message="msg", symbol="mod.f"
        )
        assert finding.as_dict() == {
            "rule": "RA002",
            "path": "a.py",
            "line": 3,
            "col": 7,
            "message": "msg",
            "symbol": "mod.f",
        }


class _LineOneRule(Rule):
    """Test double: reports line 1 of every module."""

    id = "RA001"  # reuse a real id so suppressions apply
    title = "test double"
    rationale = "test double"

    def run(self, project):
        for module in project.modules:
            yield Finding(
                path=module.path.as_posix(),
                line=1,
                col=1,
                rule=self.id,
                message="line one",
            )


class TestRunRules:
    def test_run_rules_splits_suppressed(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        silenced = tmp_path / "silenced.py"
        silenced.write_text("x = 1  # repro: ignore[RA001] -- test\n")
        project = Project([load_module(clean), load_module(silenced)])
        kept, suppressed = run_rules(project, [_LineOneRule()])
        assert [finding.path for finding in kept] == [clean.as_posix()]
        assert [finding.path for finding in suppressed] == [silenced.as_posix()]

    def test_fixture_modules_index_functions(self):
        project = Project([load_module(FIXTURES / "ra001_bad.py")])
        assert "ra001_bad.BadRouter.inverted_order" in project.functions
