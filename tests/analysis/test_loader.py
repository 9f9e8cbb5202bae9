"""Loader: discovery, module naming, and suppression parsing."""

from pathlib import Path

import pytest

from repro.analysis.loader import (
    AnalysisError,
    discover,
    load_module,
    load_paths,
    module_name_for,
    parse_suppressions,
)


class TestModuleNames:
    def test_repro_package_paths_get_dotted_names(self):
        path = Path("/anywhere/src/repro/service/router.py")
        assert module_name_for(path) == "repro.service.router"

    def test_package_init_names_the_package(self):
        path = Path("/anywhere/src/repro/analysis/__init__.py")
        assert module_name_for(path) == "repro.analysis"

    def test_fixture_paths_fall_back_to_stem(self, fixtures_dir):
        assert module_name_for(fixtures_dir / "ra001_bad.py") == "ra001_bad"


class TestSuppressions:
    def test_inline_suppression_targets_its_own_line(self):
        lines = [
            "def f():",
            "    g()  # repro: ignore[RA001] -- reviewed",
        ]
        (supp,) = parse_suppressions(lines)
        assert supp.line == 2
        assert supp.rules == frozenset({"RA001"})
        assert supp.justified
        assert not supp.standalone

    def test_standalone_suppression_skips_comment_lines(self, tmp_path):
        source = "\n".join(
            [
                "def f():",
                "    # repro: ignore[RA002] -- first line of the",
                "    # justification keeps going here",
                "    g()",
                "",
            ]
        )
        path = tmp_path / "mod.py"
        path.write_text(source)
        module = load_module(path)
        assert module.is_suppressed("RA002", 4)
        assert not module.is_suppressed("RA002", 2)
        assert not module.is_suppressed("RA001", 4)

    def test_star_matches_every_rule(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[*] -- scaffolding\n")
        module = load_module(path)
        assert module.is_suppressed("RA001", 1)
        assert module.is_suppressed("RA004", 1)

    def test_multiple_rules_in_one_comment(self):
        (supp,) = parse_suppressions(["g()  # repro: ignore[RA001, RA006] -- why"])
        assert supp.rules == frozenset({"RA001", "RA006"})

    def test_unjustified_suppression_is_flagged(self):
        (supp,) = parse_suppressions(["g()  # repro: ignore[RA004]"])
        assert not supp.justified

    def test_suppression_syntax_inside_strings_is_inert(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text('DOC = "use # repro: ignore[RA001] to suppress"\n')
        module = load_module(path)
        assert module.suppressions == []


class TestDiscovery:
    def test_discover_recurses_and_sorts(self, fixtures_dir):
        found = discover([fixtures_dir])
        names = [path.name for path in found]
        assert "ra001_bad.py" in names
        assert names == sorted(names)

    def test_discover_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("y = 2\n")
        assert [p.name for p in discover([tmp_path])] == ["real.py"]

    def test_missing_path_is_an_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            discover([tmp_path / "nope"])

    def test_syntax_error_is_an_analysis_error(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        with pytest.raises(AnalysisError):
            load_paths([path])
