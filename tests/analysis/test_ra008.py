"""RA008 WAL-fence discipline: the three acked-then-lost shapes."""

from repro.analysis.rules.ra008_walfence import WalFenceRule

from tests.analysis.helpers import fixture_project


def _run(fixture):
    project = fixture_project(fixture)
    return sorted(WalFenceRule(modules=("*",)).run(project))


class TestFiringFixture:
    def test_exact_finding_count(self):
        findings = _run("ra008_bad.py")
        assert len(findings) == 3
        assert all(f.rule == "RA008" for f in findings)

    def test_ack_before_durable_append(self):
        (ack,) = [f for f in _run("ra008_bad.py") if "Shard.put" in f.symbol]
        assert "before the durable WAL append" in ack.message
        assert "applying to the live index" in ack.message

    def test_reraise_without_fence_is_not_enough(self):
        (raw,) = [f for f in _run("ra008_bad.py") if "append_batch" in f.symbol]
        assert "no fence on its failure path" in raw.message

    def test_swallowed_append_failure(self):
        (swallowed,) = [f for f in _run("ra008_bad.py") if "apply" in f.symbol]
        assert "neither fences the log" in swallowed.message


class TestSilentFixture:
    def test_append_then_apply_with_fences_is_clean(self):
        assert _run("ra008_good.py") == []
