"""RA001 lock discipline: fixtures, scoping, and the two checks.

The acquisition-order check that used to live here is now RA006's
derived lock-order graph (tests/analysis/test_ra006.py); the
``inverted_order`` shape in the bad fixture is asserted there.
"""

from repro.analysis.rules.ra001_locks import DEFAULT_SCOPE, LockDisciplineRule

from tests.analysis.helpers import fixture_project


def _run(*fixtures, modules=("*",)):
    project = fixture_project(*fixtures)
    rule = LockDisciplineRule(modules=modules)
    return sorted(rule.run(project))


class TestFiringFixture:
    def test_every_check_fires(self):
        findings = _run("ra001_bad.py")
        by_symbol = {}
        for finding in findings:
            by_symbol.setdefault(finding.symbol.rsplit(".", 1)[-1], []).append(finding)
        assert any("blocking call submit()" in f.message for f in by_symbol["blocking_under_lock"])
        assert any(
            "uncaptured routing-table read" in f.message
            for f in by_symbol["uncaptured_subscript"]
        )
        assert any("uncaptured table read" in f.message for f in by_symbol["uncaptured_routing"])

    def test_findings_carry_locations(self):
        findings = _run("ra001_bad.py")
        assert all(f.rule == "RA001" for f in findings)
        assert all(f.line > 0 and f.col > 0 for f in findings)


class TestSilentFixture:
    def test_good_router_is_clean(self):
        assert _run("ra001_good.py") == []


class TestScoping:
    def test_default_scope_skips_fixture_modules(self):
        findings = _run("ra001_bad.py", modules=DEFAULT_SCOPE)
        assert findings == []

    def test_default_scope_matches_service_modules(self):
        from fnmatch import fnmatchcase

        assert any(
            fnmatchcase("repro.service.router", pattern) for pattern in DEFAULT_SCOPE
        )
