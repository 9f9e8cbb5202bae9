"""The new rules against history: PR-6-era bugs, reintroduced.

Each test takes a pristine production file, applies the minimal AST
mutation that recreates a bug this repo has already shipped and fixed,
and asserts the matching rule reports it — proof the rule would have
caught the regression at review time.  The pristine twin of each test
pins the zero-findings side so the rules stay precise, not just loud.
"""

import ast

from repro.analysis.cli import main as analysis_main
from repro.analysis.loader import load_module
from repro.analysis.project import Project
from repro.analysis.rules.ra005_async import AsyncPurityRule
from repro.analysis.rules.ra006_lockgraph import (
    DOCUMENTED_WITNESS,
    LockOrderGraphRule,
)
from repro.analysis.rules.ra007_handles import HandleLifecycleRule

from tests.analysis.helpers import REPO_ROOT

SHARD = REPO_ROOT / "src" / "repro" / "service" / "shard.py"
WAL = REPO_ROOT / "src" / "repro" / "durability" / "wal.py"
NET_SERVER = REPO_ROOT / "src" / "repro" / "net" / "server.py"
COALESCER = REPO_ROOT / "src" / "repro" / "net" / "coalescer.py"


def _findings(rule, path):
    return sorted(rule.run(Project([load_module(path)])))


def _mutate(tmp_path, source_path, transform):
    mutated = tmp_path / f"{source_path.stem}_mutated.py"
    mutated.write_text(transform(source_path.read_text()))
    return mutated


# -- RA007: the truncate_upto abort-path fd leak ------------------------
def _strip_abort_close(source: str) -> str:
    """Remove the in-handler close() before the reopen — the PR-6 leak."""
    tree = ast.parse(source)
    mutated = False
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "truncate_upto":
            for handler in ast.walk(node):
                if not isinstance(handler, ast.ExceptHandler):
                    continue
                kept = []
                for stmt in handler.body:
                    if isinstance(stmt, ast.Try) and "self._handle.close()" in ast.unparse(stmt):
                        mutated = True
                        continue
                    kept.append(stmt)
                handler.body = kept
    if not mutated:
        raise AssertionError("truncate_upto abort-path close not found")
    return ast.unparse(ast.fix_missing_locations(tree))


class TestHandleLifecycleMutation:
    def test_stripping_abort_close_makes_ra007_fire(self, tmp_path):
        mutated = _mutate(tmp_path, WAL, _strip_abort_close)
        findings = [
            f
            for f in _findings(HandleLifecycleRule(modules=("*",)), mutated)
            if "reassigning self._handle" in f.message
        ]
        assert findings, "RA007 no longer detects the truncate abort-path leak"
        assert any(f.symbol.endswith("truncate_upto") for f in findings)
        assert any("in this except handler" in f.message for f in findings)

    def test_pristine_wal_has_no_reassign_finding(self):
        findings = [
            f
            for f in _findings(HandleLifecycleRule(modules=("*",)), WAL)
            if "reassigning self._handle" in f.message
        ]
        assert findings == []


# -- RA006: inverted gate/guard nesting in revive -----------------------
def _invert_revive_nesting(source: str) -> str:
    """Acquire the copy's guard before the shard's write gate in ``revive``."""
    tree = ast.parse(source)
    mutated = False
    for node in ast.walk(tree):
        if isinstance(node, ast.With) and len(node.items) == 2:
            first, second = (ast.unparse(item.context_expr) for item in node.items)
            if first == "self.write_gate" and second == "replica._guard()":
                node.items.reverse()
                mutated = True
    if not mutated:
        raise AssertionError("revive write_gate/_guard nesting not found")
    return ast.unparse(ast.fix_missing_locations(tree))


class TestLockGraphMutation:
    def test_inverted_nesting_makes_ra006_fire(self, tmp_path):
        mutated = _mutate(tmp_path, SHARD, _invert_revive_nesting)
        findings = _findings(LockOrderGraphRule(modules=("*",)), mutated)
        assert findings, "RA006 no longer detects inverted gate/guard nesting"
        (cycle,) = findings
        # The cycle names both paths: the observed inverted site and the
        # documented hierarchy it contradicts.
        assert "revive" in cycle.message
        assert DOCUMENTED_WITNESS in cycle.message
        assert "_guard -> write_gate" in cycle.message

    def test_pristine_replica_set_is_clean(self):
        # The replica set is the shard: revive lives in service/shard.py.
        assert _findings(LockOrderGraphRule(modules=("*",)), SHARD) == []


# -- RA005: the sync request path under data_received / call_soon -------
def _prepend(function: str, statement: str):
    """A transform inserting ``statement`` at the top of ``function``."""

    def transform(source: str) -> str:
        tree = ast.parse(source)
        targets = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        if len(targets) != 1:
            raise AssertionError(f"expected one def {function}, found {len(targets)}")
        targets[0].body[:0] = ast.parse(statement).body
        return ast.unparse(ast.fix_missing_locations(tree))

    return transform


class TestAsyncPurityMutation:
    """PR 19 made the request path plain calls; RA005 must still see it."""

    RULE = AsyncPurityRule(root_modules=("*",))

    def test_sleep_in_data_received_fires(self, tmp_path):
        mutated = _mutate(
            tmp_path, NET_SERVER, _prepend("data_received", "import time; time.sleep(0.001)")
        )
        findings = _findings(self.RULE, mutated)
        assert [f.symbol.rsplit(".", 1)[-1] for f in findings] == ["data_received"]
        assert "blocking time.sleep()" in findings[0].message

    def test_fsync_reachable_from_connection_made_fires(self, tmp_path):
        # _count is what connection_made calls; the fsync is one hop away.
        mutated = _mutate(tmp_path, NET_SERVER, _prepend("_count", "import os; os.fsync(0)"))
        (finding,) = _findings(self.RULE, mutated)
        assert "blocking os.fsync()" in finding.message
        assert "(on the loop via " in finding.message

    def test_router_call_in_a_call_soon_target_fires(self, tmp_path):
        mutated = _mutate(
            tmp_path, COALESCER, _prepend("_flush", "queue.router.get_many([])")
        )
        extra = [
            f for f in _findings(self.RULE, mutated) if "direct ShardRouter call" in f.message
        ]
        assert [f.symbol.rsplit(".", 1)[-1] for f in extra] == ["_flush"]

    def test_pristine_net_has_only_the_sanctioned_inline_site(self):
        assert _findings(self.RULE, NET_SERVER) == []
        (finding,) = _findings(self.RULE, COALESCER)
        assert finding.symbol.endswith("Coalescer._run")
        assert "inline call of work()" in finding.message
        # ...and that site sits behind the one property that sanctions it.
        guards = [
            ast.unparse(node.test)
            for node in ast.walk(ast.parse(COALESCER.read_text()))
            if isinstance(node, ast.If)
            and any(
                getattr(inner, "lineno", 0) == finding.line
                for statement in node.body
                for inner in ast.walk(statement)
            )
        ]
        assert any("not router.durable" in guard for guard in guards), guards

    def test_deleting_the_durable_test_strands_the_suppression(self, tmp_path, capsys):
        # Always-inline (durable writes too): ``work`` is no longer
        # executor-bound, the sanctioned finding disappears and its
        # suppression is reported stale.
        source = COALESCER.read_text()
        guard = "if router is not None and (not writes or not router.durable):"
        assert source.count(guard) == 1
        package = tmp_path / "repro" / "net"
        package.mkdir(parents=True)
        (package / "coalescer.py").write_text(source)
        assert analysis_main(["--check-suppressions", str(tmp_path)]) == 0
        before = source.index(guard)
        after = source.index("in_flight = asyncio.get_running_loop().run_in_executor")
        end = source.index("return in_flight", after) + len("return in_flight")
        mutated = source[:before] + "if True:" + source[before + len(guard) : after].rstrip()
        mutated += "\n" + source[end:]
        (package / "coalescer.py").write_text(mutated)
        ast.parse(mutated)
        assert analysis_main(["--check-suppressions", str(tmp_path)]) == 1
        assert "stale suppression ignore[RA005]" in capsys.readouterr().out
