"""RA002 hot-path purity: reachability, impurities, and exemptions."""

from repro.analysis.hotpaths import DEFAULT_HOT_ROOTS, HotRoot, hot_root_qualnames
from repro.analysis.rules.ra002_hotpath import HotPathPurityRule

from tests.analysis.helpers import fixture_project, messages


def _run(fixture, roots):
    project = fixture_project(fixture)
    rule = HotPathPurityRule(roots=roots)
    return sorted(rule.run(project)), project


BAD_ROOTS = (HotRoot("ra002_bad", "lookup*"),)
GOOD_ROOTS = (HotRoot("ra002_good", "lookup*"), HotRoot("ra002_good", "*insert*"))


class TestFiringFixture:
    def test_direct_impurities_fire(self):
        findings, _ = _run("ra002_bad.py", BAD_ROOTS)
        texts = messages(findings)
        assert any("wall-clock read time.perf_counter()" in text for text in texts)
        assert any("print()" in text for text in texts)
        assert any("log call logger.debug()" in text for text in texts)
        assert any("broad exception handler (Exception)" in text for text in texts)
        assert any("wall-clock read datetime.now()" in text for text in texts)

    def test_transitive_reach_is_attributed_to_the_root(self):
        findings, _ = _run("ra002_bad.py", BAD_ROOTS)
        transitive = [
            finding
            for finding in findings
            if finding.symbol == "ra002_bad._descend"
        ]
        assert transitive, "callee of the hot root was not analyzed"
        assert all("(hot via ra002_bad.lookup)" in f.message for f in transitive)


class TestSilentFixture:
    def test_good_fixture_is_clean(self):
        findings, _ = _run("ra002_good.py", GOOD_ROOTS)
        assert findings == []

    def test_cold_function_is_not_reached(self):
        _, project = _run("ra002_good.py", GOOD_ROOTS)
        reached = project.reachable_from(
            hot_root_qualnames(project, GOOD_ROOTS)
        )
        assert "ra002_good.report" not in reached


class TestRootRegistry:
    def test_default_roots_cover_the_index_families(self):
        prefixes = {root.module_prefix for root in DEFAULT_HOT_ROOTS}
        for family in ("repro.bptree", "repro.art", "repro.fst", "repro.dualstage"):
            assert family in prefixes
        assert "repro.core.manager" in prefixes  # the per-access sample gate

    def test_root_matching_respects_module_prefix(self):
        root = HotRoot("repro.bptree", "*lookup*")
        # Prefix match is on dotted boundaries, not raw startswith.
        assert not root.module_prefix.startswith("repro.bptree_extra")
