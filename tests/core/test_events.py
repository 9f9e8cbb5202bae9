"""Tests for the adaptation event log: the per-phase series, whose
fields are deltas of the manager's lifetime counters."""

import json

from repro.core.events import AdaptationEvent, EventLog
from repro.core.manager import MAX_MIGRATION_RETRIES
from repro.obs.introspect import manager_stats

from tests.core.test_manager_degradation import FlakyIndex, heat_and_adapt, make_manager

#: AdaptationEvent field -> the ManagerCounters field it is a delta of.
DELTA_FIELDS = {
    "expansions": "expansions",
    "compactions": "compactions",
    "evictions": "evictions",
    "migration_failures": "migration_failures",
    "retries": "migration_retries",
    "quarantined": "quarantined_units",
}


def assert_events_sum_to_counters(manager):
    counters = manager.counters
    for event_field, counter_field in DELTA_FIELDS.items():
        total = sum(getattr(event, event_field) for event in manager.events)
        assert total == getattr(counters, counter_field), event_field
    assert len(manager.events) == counters.adaptation_phases


def make_event(epoch=1, expansions=0, compactions=0, **overrides):
    kwargs = dict(
        epoch=epoch,
        accesses_seen=1000,
        sampled=100,
        unique_tracked=50,
        hot=10,
        expansions=expansions,
        compactions=compactions,
        evictions=0,
        skip_length_before=50,
        skip_length_after=100,
        sample_size_after=2000,
        index_bytes=123456,
    )
    kwargs.update(overrides)
    return AdaptationEvent(**kwargs)


class TestEventLog:
    def test_append_and_len(self):
        log = EventLog()
        log.append(make_event())
        log.append(make_event(epoch=2))
        assert len(log) == 2
        assert log[1].epoch == 2

    def test_totals(self):
        """Lifetime totals are the manager's counters; the log's phases
        sum to them."""
        index = FlakyIndex(range(5))
        manager = make_manager(index)
        for unit in (0, 1, 2):
            heat_and_adapt(manager, unit)
        assert_events_sum_to_counters(manager)
        counters = manager.counters
        assert (counters.expansions, counters.compactions) == (3, 1)
        assert counters.expansions + counters.compactions == len(index.migrations)

    def test_iteration(self):
        log = EventLog()
        log.append(make_event())
        assert [event.epoch for event in log] == [1]

    def test_clear(self):
        log = EventLog()
        log.append(make_event())
        log.clear()
        assert len(log) == 0
        assert log.as_dicts() == []

    def test_events_are_frozen(self):
        import dataclasses

        import pytest

        event = make_event()
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.epoch = 99

    def test_aggregates_against_hand_built_sequence(self):
        """Failures, backoff phases, retries and a quarantine, then a
        migration: every event is its phase's delta of the counters, and
        ``stats()``'s migration history reads the counters."""
        index = FlakyIndex(range(5), failing={0})
        manager = make_manager(index)
        while not manager.is_quarantined(0):
            heat_and_adapt(manager, 0)
        event = heat_and_adapt(manager, 1)
        assert event.migrations == event.expansions == 1
        assert_events_sum_to_counters(manager)
        counters = manager.counters
        assert counters.migration_failures == MAX_MIGRATION_RETRIES
        assert counters.migration_retries == MAX_MIGRATION_RETRIES - 1
        assert counters.quarantined_units == 1
        history = manager_stats(manager)["migration_history"]
        assert history["expansions"] == counters.expansions
        assert history["compactions"] == counters.compactions
        assert history["migrations"] == counters.expansions + counters.compactions
        assert history["failures"] == counters.migration_failures
        assert history["quarantined"] == counters.quarantined_units


class TestSerialization:
    """AdaptationEvent.as_dict is the single serialization path (trace
    sink attributes, timeline benchmarks, and to_jsonl all use it)."""

    def test_as_dict_covers_every_field(self):
        import dataclasses

        event = make_event(migration_failures=2, adaptation_disabled=True)
        document = event.as_dict()
        assert set(document) == {f.name for f in dataclasses.fields(event)}
        assert document["epoch"] == 1
        assert document["migration_failures"] == 2
        assert document["adaptation_disabled"] is True
        json.dumps(document)  # JSON-safe as produced

    def test_as_dicts_preserves_order(self):
        log = EventLog()
        log.append(make_event(epoch=1))
        log.append(make_event(epoch=2))
        assert [entry["epoch"] for entry in log.as_dicts()] == [1, 2]

    def test_to_jsonl_roundtrips(self):
        log = EventLog()
        log.append(make_event(epoch=1, expansions=3))
        log.append(make_event(epoch=2, compactions=1))
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed == log.as_dicts()

    def test_empty_log_to_jsonl(self):
        assert EventLog().to_jsonl() == ""
