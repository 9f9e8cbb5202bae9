"""Tests for access statistics and classification history."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access import HISTORY_BITS, AccessStats, AccessType, Classification


class TestAccessType:
    def test_write_kinds(self):
        assert AccessType.INSERT.is_write
        assert AccessType.UPDATE.is_write
        assert AccessType.DELETE.is_write

    def test_read_kinds(self):
        assert not AccessType.READ.is_write
        assert not AccessType.SCAN.is_write


class TestRecord:
    def test_reads_and_writes_grouped(self):
        stats = AccessStats()
        stats.record(AccessType.READ, epoch=1)
        stats.record(AccessType.SCAN, epoch=1)
        stats.record(AccessType.INSERT, epoch=1)
        assert stats.reads == 2
        assert stats.writes == 1

    def test_epoch_change_resets_counters(self):
        stats = AccessStats()
        stats.record(AccessType.READ, epoch=1)
        stats.record(AccessType.READ, epoch=1)
        stats.record(AccessType.READ, epoch=2)
        assert stats.reads == 1
        assert stats.last_epoch == 2

    def test_frequency_weights(self):
        stats = AccessStats()
        stats.record(AccessType.READ, epoch=1)
        stats.record(AccessType.INSERT, epoch=1)
        assert stats.frequency() == 2


class TestHistory:
    def test_push_hot(self):
        stats = AccessStats()
        stats.push_classification(Classification.HOT)
        assert stats.history & 1 == 1
        assert stats.hot_streak() == 1
        assert stats.cold_streak() == 0

    def test_push_cold(self):
        stats = AccessStats()
        stats.push_classification(Classification.COLD)
        assert stats.cold_streak() == 1
        assert stats.hot_streak() == 0

    def test_streaks(self):
        stats = AccessStats()
        for classification in (
            Classification.HOT,
            Classification.COLD,
            Classification.COLD,
        ):
            stats.push_classification(classification)
        assert stats.cold_streak() == 2
        assert stats.hot_streak() == 0

    def test_history_bounded_to_eight(self):
        stats = AccessStats()
        for _ in range(20):
            stats.push_classification(Classification.HOT)
        assert stats.history == (1 << HISTORY_BITS) - 1
        assert stats.hot_streak() == HISTORY_BITS
        assert stats.epochs_tracked == HISTORY_BITS

    def test_hot_count_window(self):
        stats = AccessStats()
        for classification in (
            Classification.HOT,
            Classification.COLD,
            Classification.HOT,
        ):
            stats.push_classification(classification)
        assert stats.hot_count() == 2

    def test_untracked_history_is_empty(self):
        stats = AccessStats()
        assert stats.cold_streak() == 0
        assert stats.hot_streak() == 0
        assert stats.hot_count() == 0

    def test_size_bytes_constant(self):
        assert AccessStats().size_bytes() == 21


@settings(max_examples=50)
@given(st.lists(st.sampled_from([Classification.HOT, Classification.COLD]), max_size=30))
def test_streaks_match_naive(history):
    stats = AccessStats()
    for classification in history:
        stats.push_classification(classification)
    window = list(reversed(history[-HISTORY_BITS:]))
    naive_hot = 0
    for entry in window:
        if entry is Classification.HOT:
            naive_hot += 1
        else:
            break
    naive_cold = 0
    for entry in window:
        if entry is Classification.COLD:
            naive_cold += 1
        else:
            break
    assert stats.hot_streak() == naive_hot
    assert stats.cold_streak() == naive_cold
    assert stats.hot_count() == sum(
        1 for entry in window if entry is Classification.HOT
    )
