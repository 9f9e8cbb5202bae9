"""Tests for the adaptation manager, against a minimal fake index."""

import pytest

from repro.core.access import AccessType
from repro.core.budget import MemoryBudget
from repro.core.heuristics import HeuristicDecision
from repro.core.manager import (
    FALLBACK_HOT_FRACTION,
    FALLBACK_K_MIN,
    AdaptationManager,
    ManagerConfig,
)

COMPACT = "compact"
FAST = "fast"


class FakeIndex:
    """A dictionary of unit -> encoding standing in for a real index."""

    def __init__(self, units, compact_bytes=100, fast_bytes=1000):
        self.encodings = {unit: COMPACT for unit in units}
        self.compact_bytes = compact_bytes
        self.fast_bytes = fast_bytes
        self.migrations = []

    def tracked_population(self):
        return len(self.encodings)

    def used_memory(self):
        return sum(
            self.fast_bytes if encoding == FAST else self.compact_bytes
            for encoding in self.encodings.values()
        )

    @property
    def num_keys(self):
        return len(self.encodings) * 10

    def encoding_of(self, identifier):
        return self.encodings.get(identifier)

    def migrate(self, identifier, target_encoding, context):
        if self.encodings.get(identifier) == target_encoding:
            return False
        self.encodings[identifier] = target_encoding
        self.migrations.append((identifier, target_encoding))
        return True

    def encoding_census(self):
        census = {}
        for encoding in (COMPACT, FAST):
            count = sum(1 for value in self.encodings.values() if value == encoding)
            if count:
                avg = self.fast_bytes if encoding == FAST else self.compact_bytes
                census[encoding] = (count, float(avg))
        return census


def make_manager(index, **overrides):
    defaults = dict(
        encoding_order=(COMPACT, FAST),
        initial_skip_length=0,
        skip_min=0,
        skip_max=10,
        initial_sample_size=50,
        use_bloom_filter=False,
    )
    defaults.update(overrides)
    return AdaptationManager(index, ManagerConfig(**defaults))


class TestConfig:
    def test_requires_two_encodings(self):
        with pytest.raises(ValueError):
            ManagerConfig(encoding_order=(COMPACT,))

    def test_skip_range_validated(self):
        with pytest.raises(ValueError):
            ManagerConfig(encoding_order=(COMPACT, FAST), skip_min=10, skip_max=5)

    def test_fast_and_compact_ends(self):
        config = ManagerConfig(encoding_order=(COMPACT, "mid", FAST))
        assert config.compact_encoding == COMPACT
        assert config.fast_encoding == FAST


class TestSamplingFlow:
    def test_is_sample_counts_accesses(self):
        manager = make_manager(FakeIndex(range(10)))
        for _ in range(5):
            manager.is_sample()
        assert manager.counters.accesses == 5

    def test_disabled_manager_never_samples(self):
        manager = make_manager(FakeIndex(range(10)))
        manager.disable()
        assert not any(manager.is_sample() for _ in range(20))
        manager.enable()
        assert manager.is_sample()

    def test_track_aggregates_per_unit(self):
        manager = make_manager(FakeIndex(range(10)))
        manager.track(3, AccessType.READ)
        manager.track(3, AccessType.INSERT)
        stats = manager.stats_of(3)
        assert stats.reads == 1
        assert stats.writes == 1

    def test_context_stored_and_updated(self):
        manager = make_manager(FakeIndex(range(10)))
        manager.track(1, AccessType.READ, context="parent-a")
        assert manager.stats_of(1).context == "parent-a"
        manager.update_context(1, "parent-b")
        assert manager.stats_of(1).context == "parent-b"

    def test_forget(self):
        manager = make_manager(FakeIndex(range(10)))
        manager.track(1, AccessType.READ)
        manager.forget(1)
        assert manager.stats_of(1) is None

    def test_register_without_sample(self):
        manager = make_manager(FakeIndex(range(10)))
        manager.register(5, context="parent")
        stats = manager.stats_of(5)
        assert stats.reads == 0
        assert stats.context == "parent"
        assert manager.counters.sampled == 0


class TestBloomGating:
    def test_first_sighting_filtered(self):
        manager = make_manager(
            FakeIndex(range(10)), use_bloom_filter=True, initial_sample_size=1000
        )
        manager.track(1, AccessType.READ)
        assert manager.stats_of(1) is None  # only in the filter
        manager.track(1, AccessType.READ)
        assert manager.stats_of(1) is not None
        assert manager.counters.bloom_rejections == 1


class TestAdaptation:
    def test_phase_triggers_at_sample_size(self):
        index = FakeIndex(range(20))
        manager = make_manager(index, initial_sample_size=10)
        for step in range(10):
            manager.track(step % 2, AccessType.READ)
        assert manager.counters.adaptation_phases == 1
        assert manager.epoch == 2

    def test_hot_units_expanded(self):
        # Unbounded: k is FALLBACK_K_MIN, so exactly that many units are hot.
        index = FakeIndex(range(100))
        hot = range(FALLBACK_K_MIN)
        cold = range(FALLBACK_K_MIN, FALLBACK_K_MIN + 10)
        manager = make_manager(index, initial_sample_size=2 * len(hot) + len(cold))
        for unit in hot:
            manager.track(unit, AccessType.READ)
            manager.track(unit, AccessType.READ)
        for unit in cold:
            manager.track(unit, AccessType.READ)  # the last one triggers the phase
        assert manager.counters.adaptation_phases == 1
        assert all(index.encodings[unit] == FAST for unit in hot)
        assert all(index.encodings[unit] == COMPACT for unit in cold)

    def test_cold_units_compacted_after_two_phases(self):
        index = FakeIndex(range(20))
        manager = make_manager(index, initial_sample_size=100, max_sample_size=100)
        # Phase 1: unit 0 is hot.
        for _ in range(100):
            manager.track(0, AccessType.READ)
        assert index.encodings[0] == FAST
        # Phases 2 and 3: unit 1 is hot, unit 0 silent (cold).
        for _ in range(2):
            for _ in range(100):
                manager.track(1, AccessType.READ)
        assert index.encodings[0] == COMPACT

    def test_vanished_units_evicted(self):
        index = FakeIndex(range(5))
        manager = make_manager(index, initial_sample_size=10)
        for _ in range(9):
            manager.track(0, AccessType.READ)
        del index.encodings[0]  # unit disappears before the phase
        index.encodings["replacement"] = COMPACT
        manager.track("replacement", AccessType.READ)
        assert manager.stats_of(0) is None

    def test_event_log_written(self):
        index = FakeIndex(range(20))
        manager = make_manager(index, initial_sample_size=10)
        for _ in range(10):
            manager.track(0, AccessType.READ)
        assert len(manager.events) == 1
        event = manager.events[0]
        assert event.epoch == 1
        assert event.sampled == 10
        assert event.index_bytes == index.used_memory()

    def test_custom_heuristic_used(self):
        decisions = []

        def heuristic(info):
            decisions.append(info.identifier)
            return HeuristicDecision.keep()

        index = FakeIndex(range(5))
        manager = make_manager(index, initial_sample_size=5, heuristic=heuristic)
        for _ in range(5):
            manager.track(0, AccessType.READ)
        assert decisions == [0]
        assert index.migrations == []

    def test_skip_length_adapts_up_when_stable(self):
        index = FakeIndex(range(20))
        manager = make_manager(
            index,
            initial_skip_length=2,
            skip_min=2,
            skip_max=100,
            initial_sample_size=20,
            heuristic=lambda info: HeuristicDecision.keep(),
        )
        for _ in range(20):
            manager.track(0, AccessType.READ)
        assert manager.skip_length == 4  # doubled: no migrations at all


class TestBudgetK:
    def test_bounded_budget_limits_k(self):
        index = FakeIndex(range(100))
        index.encodings[0] = FAST  # census needs one expanded unit
        # current = 99*100 + 1000 = 10_900; growth per expansion = 900.
        budget = MemoryBudget.absolute(10_900 + 5 * 900 + 100)
        manager = make_manager(index, budget=budget, initial_sample_size=1000)
        assert manager._choose_k() == 5

    def test_unbounded_uses_fallback(self):
        index = FakeIndex(range(1000))
        manager = make_manager(index, initial_sample_size=10)
        assert manager._choose_k() == FALLBACK_K_MIN
        # Past FALLBACK_K_MIN / FALLBACK_HOT_FRACTION units the share wins.
        index = FakeIndex(range(20_000))
        manager = make_manager(index, initial_sample_size=10)
        assert manager._choose_k() == int(20_000 * FALLBACK_HOT_FRACTION) == 200

    def test_sample_size_respects_cap(self):
        index = FakeIndex(range(10**6))
        manager = make_manager(index, max_sample_size=500, initial_sample_size=None)
        assert manager.sample_size == 500


class TestSizeAccounting:
    def test_size_grows_with_tracked_units(self):
        manager = make_manager(FakeIndex(range(100)), initial_sample_size=10**6)
        empty = manager.size_bytes()
        for unit in range(50):
            manager.track(unit, AccessType.READ)
        assert manager.size_bytes() > empty


class TestClassificationWeights:
    def test_default_weights_by_raw_frequency(self):
        # A write counts exactly like a read: the top FALLBACK_K_MIN units
        # are the twice-accessed ones, whichever kind of access they saw.
        index = FakeIndex(range(100))
        half = FALLBACK_K_MIN // 2
        readers = range(half)
        writers = range(half, FALLBACK_K_MIN)
        once = range(FALLBACK_K_MIN, FALLBACK_K_MIN + 10)
        manager = make_manager(index, initial_sample_size=2 * FALLBACK_K_MIN + len(once))
        for unit in readers:
            manager.track(unit, AccessType.READ)
            manager.track(unit, AccessType.SCAN)
        for unit in writers:
            manager.track(unit, AccessType.INSERT)
            manager.track(unit, AccessType.UPDATE)
        for unit in once:
            manager.track(unit, AccessType.DELETE)  # the last one triggers the phase
        assert all(index.encodings[unit] == FAST for unit in (*readers, *writers))
        assert all(index.encodings[unit] == COMPACT for unit in once)
