"""RA005 async purity: fixtures, transitivity, executor blind spots."""

import inspect

from repro.analysis.loader import load_paths
from repro.analysis.project import Project
from repro.analysis.rules.ra005_async import AsyncPurityRule
from repro.net.server import _Connection

from tests.analysis.helpers import REPO_ROOT, fixture_project


def _run(fixture, roots):
    project = fixture_project(fixture)
    return sorted(AsyncPurityRule(root_modules=roots).run(project))


class TestFiringFixture:
    def test_exact_finding_count(self):
        findings = _run("ra005_bad.py", ("ra005_bad",))
        assert len(findings) == 8
        assert all(f.rule == "RA005" for f in findings)

    def test_transitive_finding_names_its_async_root(self):
        findings = _run("ra005_bad.py", ("ra005_bad",))
        transitive = [f for f in findings if f.symbol.endswith("._load_blob")]
        assert len(transitive) == 1
        assert "(on the loop via ra005_bad.handle_request)" in transitive[0].message

    def test_every_blocking_shape_detected(self):
        messages = " | ".join(
            f.message for f in _run("ra005_bad.py", ("ra005_bad",))
        )
        assert "blocking time.sleep()" in messages
        assert "blocking open()" in messages
        assert "synchronous TenantDirectory() build" in messages
        assert "direct ShardRouter call router.put()" in messages
        assert "sync `with shard.op_lock`" in messages
        assert "(Future.result)" in messages
        assert "(lock wait)" in messages
        assert "blocking file I/O path.read_bytes()" in messages


class TestLoopCallbackRoots:
    """The request path is plain calls under ``data_received``: sync roots."""

    def _by_symbol(self):
        findings = _run("ra005_loop_bad.py", ("ra005_loop_bad",))
        assert len(findings) == 5
        return {f.symbol.rsplit(".", 1)[-1]: f.message for f in findings}

    def test_protocol_methods_are_roots(self):
        messages = self._by_symbol()
        assert "blocking time.sleep()" in messages["data_received"]
        assert "blocking os.fsync()" in messages["_sync_log"]
        assert "Connection.connection_made)" in messages["_sync_log"]

    def test_call_soon_target_is_a_root(self):
        assert "direct ShardRouter call router.get_many()" in self._by_symbol()["_flush"]

    def test_executor_closure_called_inline_is_a_finding(self):
        message = self._by_symbol()["_run"]
        assert "inline call of work()" in message
        assert "(on the loop via ra005_loop_bad.Batcher._flush)" in message

    def test_closure_never_handed_to_an_executor_is_walked(self):
        assert "path.read_bytes()" in self._by_symbol()["handler"]


class TestSilentFixture:
    def test_executor_routed_work_is_clean(self):
        # Awaited executor hops, sync closures handed to the executor (from
        # a coroutine or a protocol callback), async-with locks,
        # asyncio.sleep, and typing.Protocol classes are all loop-safe.
        assert _run("ra005_good.py", ("ra005_good",)) == []


class TestScoping:
    def test_fixture_invisible_under_default_roots(self):
        project = fixture_project("ra005_bad.py")
        assert sorted(AsyncPurityRule().run(project)) == []


class TestRealTreeRoots:
    """The serving loop's own callbacks stay rooted when they move or are renamed."""

    def test_every_connection_method_and_scheduled_callback_is_a_root(self):
        tree = Project(load_paths([REPO_ROOT / "src" / "repro" / "net"]))
        roots = set(AsyncPurityRule().async_roots(tree))
        methods = [
            name
            for name, member in vars(_Connection).items()
            if inspect.isfunction(member)
        ]
        assert {"data_received", "_on_request", "_complete", "_write_replies"} <= set(methods)
        assert {f"repro.net.server._Connection.{name}" for name in methods} <= roots
        assert "repro.net.coalescer.Coalescer._flush" in roots  # handed to call_soon
        reached = tree.reachable_from(sorted(roots))
        for name in ("_flush_entries", "_run"):
            assert f"repro.net.coalescer.Coalescer.{name}" in reached
