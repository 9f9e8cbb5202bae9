"""Failure-injection tests for the adaptation manager.

The manager must keep functioning when the index declines migrations,
when units vanish mid-phase, and when the heuristic returns pathological
decision streams — real indexes do all of these (full budgets, splits,
concurrent deletes).
"""

from repro.core.access import AccessType
from repro.core.heuristics import HeuristicDecision

from tests.core.test_manager import COMPACT, FAST, FakeIndex, make_manager


class RefusingIndex(FakeIndex):
    """An index whose migrate() always declines (e.g. allocation failed)."""

    def migrate(self, identifier, target_encoding, context):
        return False


class FlakyIndex(FakeIndex):
    """Declines every other migration."""

    def __init__(self, units):
        super().__init__(units)
        self._flip = False

    def migrate(self, identifier, target_encoding, context):
        self._flip = not self._flip
        if self._flip:
            return False
        return super().migrate(identifier, target_encoding, context)


class TestDeclinedMigrations:
    def test_refused_migrations_not_counted(self):
        index = RefusingIndex(range(10))
        manager = make_manager(index, initial_sample_size=20, max_sample_size=20)
        for _ in range(20):
            manager.track(0, AccessType.READ)
        assert manager.counters.expansions == 0
        assert manager.counters.compactions == 0
        assert manager.events[0].expansions == 0

    def test_flaky_index_partial_migrations(self):
        index = FlakyIndex(range(10))
        manager = make_manager(index, initial_sample_size=40, max_sample_size=40)
        for step in range(40):
            manager.track(step % 5, AccessType.READ)
        migrated = sum(1 for enc in index.encodings.values() if enc == FAST)
        assert manager.counters.expansions == migrated
        assert 0 < migrated < 5

    def test_manager_keeps_running_after_refusals(self):
        index = RefusingIndex(range(10))
        manager = make_manager(index, initial_sample_size=10, max_sample_size=10)
        for round_number in range(5):
            for _ in range(10):
                manager.track(0, AccessType.READ)
        assert manager.counters.adaptation_phases == 5


class TestPathologicalHeuristics:
    def test_stop_tracking_everything(self):
        def drop_all(info):
            return HeuristicDecision.stop_tracking()

        index = FakeIndex(range(10))
        manager = make_manager(
            index, initial_sample_size=10, max_sample_size=10, heuristic=drop_all
        )
        for _ in range(10):
            manager.track(3, AccessType.READ)
        assert manager.tracked_units == 0
        # Tracking resumes fine in the next phase.
        for _ in range(10):
            manager.track(3, AccessType.READ)
        assert manager.counters.adaptation_phases == 2

    def test_migrate_to_current_encoding_is_noop(self):
        def same_encoding(info):
            return HeuristicDecision.migrate(info.current_encoding)

        index = FakeIndex(range(10))
        manager = make_manager(
            index, initial_sample_size=10, max_sample_size=10, heuristic=same_encoding
        )
        for _ in range(10):
            manager.track(0, AccessType.READ)
        assert index.migrations == []
        assert manager.counters.expansions == 0

    def test_oscillating_heuristic_counts_both_directions(self):
        state = {"flip": False}

        def oscillate(info):
            state["flip"] = not state["flip"]
            target = FAST if info.current_encoding == COMPACT else COMPACT
            return HeuristicDecision.migrate(target)

        index = FakeIndex(range(4))
        manager = make_manager(
            index, initial_sample_size=8, max_sample_size=8, heuristic=oscillate
        )
        for round_number in range(3):
            for _ in range(8):
                manager.track(0, AccessType.READ)
        assert manager.counters.expansions >= 1
        assert manager.counters.compactions >= 1


class TestVanishingUnits:
    def test_all_units_vanish_before_phase(self):
        index = FakeIndex(range(5))
        manager = make_manager(index, initial_sample_size=10, max_sample_size=10)
        for _ in range(9):
            manager.track(0, AccessType.READ)
        index.encodings.clear()
        index.encodings["fresh"] = COMPACT
        manager.track("fresh", AccessType.READ)  # triggers the phase
        assert manager.counters.adaptation_phases == 1
        assert manager.stats_of(0) is None

    def test_forget_unknown_unit_is_noop(self):
        manager = make_manager(FakeIndex(range(3)))
        manager.forget("never-seen")  # must not raise

    def test_update_context_unknown_unit_is_noop(self):
        manager = make_manager(FakeIndex(range(3)))
        manager.update_context("never-seen", "ctx")  # must not raise


class TestManualAdaptation:
    def test_run_adaptation_with_empty_samples(self):
        manager = make_manager(FakeIndex(range(5)))
        event = manager.run_adaptation()
        assert event.sampled == 0
        assert event.hot == 0
        assert manager.epoch == 2

    def test_epoch_separates_stale_counters(self):
        index = FakeIndex(range(5))
        manager = make_manager(index, initial_sample_size=100, max_sample_size=100)
        manager.track(0, AccessType.READ)
        manager.run_adaptation()
        manager.track(0, AccessType.READ)
        stats = manager.stats_of(0)
        # Counter was reset when the new epoch's first access arrived.
        assert stats.reads == 1
        assert stats.last_epoch == manager.epoch
