"""The suite on its own tree: clean today, and still sharp.

Three guarantees:

* the real ``src/repro`` tree analyzes clean (anything true the rules
  surface gets fixed or justified at the PR that introduces it);
* the rule registries name live code — a hot root or method name that
  matches nothing silently un-checks whatever it was meant to cover,
  the same way a stale suppression silently swallows a future finding;
* the rules have not gone blunt — deleting the PR-4 writer-revalidation
  block from a copy of the router makes RA001 report the lost-write
  race again.
"""

import ast

import pytest

from repro.analysis import analyze_paths
from repro.analysis.hotpaths import DEFAULT_HOT_ROOTS, hot_root_qualnames
from repro.analysis.loader import load_module, load_paths
from repro.analysis.project import Project
from repro.analysis.rules import ra001_locks, ra005_async, ra008_walfence
from repro.analysis.rules.ra001_locks import LockDisciplineRule
from repro.analysis.rules.ra004_telemetry import TelemetryHygieneRule

from tests.analysis.helpers import REPO_ROOT

ROUTER = REPO_ROOT / "src" / "repro" / "service" / "router.py"
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
    "BLOCKING_HELPERS": ra001_locks.BLOCKING_HELPERS,
    "SHARD_WRITE_METHODS": ra001_locks.SHARD_WRITE_METHODS,
    "HEAVY_BUILDERS": ra005_async.HEAVY_BUILDERS,
    "ROUTER_METHODS": ra005_async.ROUTER_METHODS,
    "APPEND_METHODS": ra008_walfence.APPEND_METHODS,
    "FENCE_METHODS": ra008_walfence.FENCE_METHODS,
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

    def test_hot_roots_reach_the_hash_maps_and_the_succinct_kernel(self, tree):
        reached = tree.reachable_from(hot_root_qualnames(tree))
        for qualname in (
            "repro.hashmap.cuckoo.CuckooMap.get",
            "repro.succinct.bitvector.BitVector.next1",
            "repro.succinct.bitvector.BitVector.word_slice",
        ):
            assert qualname in reached


def _strip_revalidation(source: str) -> str:
    """Rewrite ``_write_group`` to write under the gate without re-reading
    ``self._table`` — exactly the pre-PR-4 lost-write shape."""
    tree = ast.parse(source)
    mutated = False
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_write_group":
            for inner in ast.walk(node):
                if isinstance(inner, ast.With):
                    rendered = ast.unparse(inner.items[0].context_expr)
                    if rendered == "shard.write_gate":
                        inner.body = ast.parse("shard.put_many(group)").body
                        mutated = True
    if not mutated:
        raise AssertionError("router._write_group gate block not found")
    return ast.unparse(ast.fix_missing_locations(tree))


class TestMutationRegression:
    def test_deleting_revalidation_makes_ra001_fire(self, tmp_path):
        mutated = tmp_path / "router_mutated.py"
        mutated.write_text(_strip_revalidation(ROUTER.read_text()))
        project = Project([load_module(mutated)])
        rule = LockDisciplineRule(modules=("*",))
        findings = [f for f in rule.run(project) if "lost-write race" in f.message]
        assert findings, "RA001 no longer detects the PR-4 lost-write shape"
        assert any(f.symbol.endswith("ShardRouter._write_group") for f in findings)

    def test_pristine_router_has_no_lost_write_finding(self):
        project = Project([load_module(ROUTER)])
        rule = LockDisciplineRule(modules=("*",))
        findings = [f for f in rule.run(project) if "lost-write race" in f.message]
        assert findings == []
