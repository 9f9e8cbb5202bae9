"""The suite on its own tree: clean today, and still sharp.

Two guarantees:

* the real ``src/repro`` tree analyzes clean (anything true the rules
  surface gets fixed or justified at the PR that introduces it);
* the rule registries name live code — a hot root or method name that
  matches nothing silently un-checks whatever it was meant to cover,
  the same way a stale suppression silently swallows a future finding.
"""

import ast

import pytest

from repro.analysis import analyze_paths
from repro.analysis.hotpaths import DEFAULT_HOT_ROOTS, hot_root_qualnames
from repro.analysis.loader import load_paths
from repro.analysis.project import Project
from repro.analysis.rules import ra005_async
from repro.analysis.rules.ra004_telemetry import TelemetryHygieneRule

from tests.analysis.helpers import REPO_ROOT

TRACE_SCHEMA = REPO_ROOT / "docs" / "trace_schema.json"


def _default_rules():
    from repro.analysis.core import build_rules

    rules = build_rules()
    return [
        TelemetryHygieneRule(TRACE_SCHEMA)
        if isinstance(rule, TelemetryHygieneRule)
        else rule
        for rule in rules
    ]


class TestRealTree:
    def test_src_repro_analyzes_clean(self):
        findings, suppressed = analyze_paths(
            [REPO_ROOT / "src" / "repro"], rules=_default_rules()
        )
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )
        # The justified suppressions in the tree are counted, not hidden.
        assert len(suppressed) >= 1

    def test_loop_thread_index_work_is_one_sanctioned_ra005_site(self):
        # PR 19: a WAL-less router's flush runs on the loop thread.  That is
        # exactly one suppressed RA005 finding (behind ``not router.durable``
        # in the coalescer) on top of the five older suppressions.
        _, suppressed = analyze_paths(
            [REPO_ROOT / "src" / "repro"], rules=_default_rules()
        )
        assert len(suppressed) == 6
        assert [f.symbol for f in suppressed if f.rule == "RA005"] == [
            "repro.net.coalescer.Coalescer._run"
        ]

    def test_every_tree_suppression_is_justified(self):
        for module in load_paths([REPO_ROOT / "src" / "repro"]):
            for suppression in module.suppressions:
                assert suppression.justified, (
                    f"{module.path}:{suppression.line} lacks a justification"
                )


#: Rule registries of bare class/function names the rules match calls against.
NAME_REGISTRIES = {
    "HEAVY_BUILDERS": ra005_async.HEAVY_BUILDERS,
    "ROUTER_METHODS": ra005_async.ROUTER_METHODS,
}


@pytest.fixture(scope="module")
def tree():
    return Project(load_paths([REPO_ROOT / "src" / "repro"]))


@pytest.fixture(scope="module")
def defined_names(tree):
    """Every class and function name defined anywhere in ``src/repro``."""
    return {
        node.name
        for parsed in tree.modules
        for node in ast.walk(parsed.tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


class TestRegistryHygiene:
    def test_every_hot_root_matches_a_function(self, tree):
        dead = [root for root in DEFAULT_HOT_ROOTS if not hot_root_qualnames(tree, [root])]
        assert dead == []

    @pytest.mark.parametrize("registry", sorted(NAME_REGISTRIES))
    def test_every_registered_name_is_defined_in_the_tree(self, defined_names, registry):
        assert sorted(NAME_REGISTRIES[registry] - defined_names) == []

    def test_hot_roots_reach_the_succinct_kernel(self, tree):
        reached = tree.reachable_from(hot_root_qualnames(tree))
        for qualname in (
            "repro.succinct.bitvector.BitVector.next1",
            "repro.succinct.bitvector.BitVector.word_slice",
        ):
            assert qualname in reached
