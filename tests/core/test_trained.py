"""Tests for offline training."""

from repro.core.access import AccessType
from repro.core.budget import MemoryBudget
from repro.core.trained import rank_units, train_offline

from tests.core.test_manager import COMPACT, FAST, FakeIndex


class TestRankUnits:
    def test_orders_by_frequency(self):
        trace = [("a", AccessType.READ)] * 3 + [("b", AccessType.READ)] * 5
        assert rank_units(trace) == ["b", "a"]

    def test_write_weight(self):
        # A write counts like a read: three reads outrank two inserts,
        # and four inserts outrank three reads.
        trace = [("a", AccessType.READ)] * 3 + [("b", AccessType.INSERT)] * 2
        assert rank_units(trace) == ["a", "b"]
        assert rank_units(trace + [("b", AccessType.INSERT)] * 2) == ["b", "a"]

    def test_empty_trace(self):
        assert rank_units([]) == []


class TestTrainOffline:
    def test_expands_hottest_first_until_budget(self):
        index = FakeIndex(range(10), compact_bytes=100, fast_bytes=1000)
        trace = []
        for unit in range(10):
            trace.extend([(unit, AccessType.READ)] * (10 - unit))
        # All-compact = 1000 bytes; each expansion adds 900.
        budget = MemoryBudget.absolute(1000 + 2 * 900 + 50)
        migrated = train_offline(index, trace, FAST, budget)
        assert migrated == 3  # budget checked before each migration
        assert index.encodings[0] == FAST
        assert index.encodings[1] == FAST
        assert index.encodings[2] == FAST
        assert index.encodings[3] == COMPACT

    def test_unbounded_expands_all_touched(self):
        index = FakeIndex(range(5))
        trace = [(unit, AccessType.READ) for unit in range(3)]
        migrated = train_offline(index, trace, FAST)
        assert migrated == 3
        assert index.encodings[3] == COMPACT

    def test_skips_already_fast_units(self):
        index = FakeIndex(range(3))
        index.encodings[0] = FAST
        migrated = train_offline(index, [(0, AccessType.READ)], FAST)
        assert migrated == 0

    def test_skips_vanished_units(self):
        index = FakeIndex(range(3))
        migrated = train_offline(index, [("ghost", AccessType.READ)], FAST)
        assert migrated == 0
