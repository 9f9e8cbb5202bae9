"""RA007 handle lifecycle: the two leak shapes, and every safe shape."""

from repro.analysis.rules.ra007_handles import HandleLifecycleRule

from tests.analysis.helpers import fixture_project


def _run(fixture):
    project = fixture_project(fixture)
    return sorted(HandleLifecycleRule(modules=("*",)).run(project))


class TestFiringFixture:
    def test_exact_finding_count(self):
        findings = _run("ra007_bad.py")
        assert len(findings) == 3
        assert all(f.rule == "RA007" for f in findings)

    def test_abort_path_reassign_without_close(self):
        (reassign,) = [f for f in _run("ra007_bad.py") if "reassigning" in f.message]
        assert reassign.symbol.endswith("Wal.truncate")
        assert "in this except handler" in reassign.message

    def test_never_closed_and_straightline_close(self):
        messages = {f.symbol.rsplit(".", 1)[-1]: f.message for f in _run("ra007_bad.py")}
        assert "never closed" in messages["never_closed"]
        assert "only closed on the straight-line path" in messages["straightline_close"]


class TestSilentFixture:
    def test_safe_shapes_are_clean(self):
        # finally-close, `with` blocks, close-before-reassign in the
        # handler, and ownership handoff are all silent.
        assert _run("ra007_good.py") == []
