"""RA005 async purity: fixtures, transitivity, executor blind spots."""

from repro.analysis.rules.ra005_async import AsyncPurityRule

from tests.analysis.helpers import fixture_project


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
        assert "(async via ra005_bad.handle_request)" in transitive[0].message

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


class TestSilentFixture:
    def test_executor_routed_work_is_clean(self):
        # Awaited executor hops, sync closures handed to the executor,
        # async-with locks, and asyncio.sleep are all loop-safe.
        assert _run("ra005_good.py", ("ra005_good",)) == []


class TestScoping:
    def test_fixture_invisible_under_default_roots(self):
        project = fixture_project("ra005_bad.py")
        assert sorted(AsyncPurityRule().run(project)) == []
