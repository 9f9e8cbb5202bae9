"""Tests for manager-side degradation: retry, backoff, quarantine, disable."""

import pytest

from repro.core import manager as manager_module
from repro.core.access import AccessType
from repro.core.manager import (
    MAX_MIGRATION_RETRIES,
    RETRY_BACKOFF_CAP,
    AdaptationManager,
    ManagerConfig,
)

COMPACT = "compact"
FAST = "fast"


class FlakyIndex:
    """A fake index whose migrations raise until told otherwise."""

    def __init__(self, units, failing=()):
        self.encodings = {unit: COMPACT for unit in units}
        self.failing = set(failing)
        self.attempts = []
        self.migrations = []

    def tracked_population(self):
        return len(self.encodings)

    def size_bytes(self):
        return len(self.encodings) * 100

    @property
    def num_keys(self):
        return len(self.encodings) * 10

    def encoding_of(self, identifier):
        return self.encodings.get(identifier)

    def migrate(self, identifier, target_encoding, context):
        self.attempts.append(identifier)
        if identifier in self.failing:
            raise MemoryError(f"simulated allocation failure for {identifier}")
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
                census[encoding] = (count, 100.0)
        return census


def make_manager(index, **overrides):
    defaults = dict(
        encoding_order=(COMPACT, FAST),
        initial_skip_length=0,
        skip_min=0,
        skip_max=10,
        initial_sample_size=1_000_000,  # phases are forced manually
        use_bloom_filter=False,
    )
    defaults.update(overrides)
    return AdaptationManager(index, ManagerConfig(**defaults))


def heat_and_adapt(manager, unit, reads=10):
    """Make ``unit`` hot this epoch and force an adaptation phase."""
    for _ in range(reads):
        manager.track(unit, AccessType.READ)
    return manager.run_adaptation()


class TestFailureAccounting:
    def test_failure_does_not_propagate_and_is_counted(self):
        index = FlakyIndex(range(5), failing={0})
        manager = make_manager(index)
        event = heat_and_adapt(manager, 0)
        assert index.attempts == [0]
        assert event.migration_failures == 1
        assert event.expansions == 0
        assert manager.counters.migration_failures == 1
        assert index.encodings[0] == COMPACT  # untouched

    def test_success_leaves_failure_state_clean(self):
        index = FlakyIndex(range(5))
        manager = make_manager(index)
        event = heat_and_adapt(manager, 0)
        assert event.migration_failures == 0
        assert index.encodings[0] == FAST
        assert manager.counters.migration_failures == 0


class TestBackoff:
    def test_failed_unit_backs_off_before_retry(self):
        index = FlakyIndex(range(5), failing={0})
        manager = make_manager(index)
        heat_and_adapt(manager, 0)  # failure #1, backoff = 1 phase
        heat_and_adapt(manager, 0)  # still backing off: no attempt
        assert index.attempts == [0]
        event = heat_and_adapt(manager, 0)  # backoff elapsed: retry
        assert index.attempts == [0, 0]
        assert event.retries == 1
        assert manager.counters.migration_retries == 1

    def test_backoff_grows_exponentially_and_caps(self, monkeypatch):
        # Quarantine comes first at the shipped retry count; lift it so
        # the streak runs long enough to reach the cap.
        monkeypatch.setattr(manager_module, "MAX_MIGRATION_RETRIES", 100)
        index = FlakyIndex(range(5), failing={0})
        manager = make_manager(index)
        attempt_epochs = []
        for _ in range(40):
            before = len(index.attempts)
            epoch = manager.epoch
            heat_and_adapt(manager, 0)
            if len(index.attempts) > before:
                attempt_epochs.append(epoch)
        gaps = [b - a for a, b in zip(attempt_epochs, attempt_epochs[1:])]
        # Backoffs of 1, 2 and 4 skipped phases, then capped.
        assert gaps[:3] == [2, 3, 5]
        assert len(gaps) > 4
        assert all(gap == RETRY_BACKOFF_CAP + 1 for gap in gaps[3:])

    def test_retry_after_transient_failure_succeeds(self):
        index = FlakyIndex(range(5), failing={0})
        manager = make_manager(index)
        heat_and_adapt(manager, 0)
        index.failing.clear()  # the fault was transient
        heat_and_adapt(manager, 0)  # backing off
        event = heat_and_adapt(manager, 0)
        assert index.encodings[0] == FAST
        assert event.retries == 1
        assert event.expansions == 1
        assert manager.counters.migration_failures == 1


class TestQuarantine:
    def make_quarantined(self, index):
        """Fail unit 0 until its MAX_MIGRATION_RETRIES-th attempt."""
        manager = make_manager(index)
        event = heat_and_adapt(manager, 0)
        while len(index.attempts) < MAX_MIGRATION_RETRIES:
            assert not manager.is_quarantined(0)
            event = heat_and_adapt(manager, 0)  # a backoff phase or a retry
        return manager, event

    def test_repeated_failures_quarantine_the_unit(self):
        index = FlakyIndex(range(5), failing={0})
        manager, event = self.make_quarantined(index)
        assert manager.is_quarantined(0)
        assert manager.quarantined_units == 1
        assert event.quarantined == 1
        assert manager.counters.quarantined_units == 1

    def test_quarantined_unit_never_retried(self):
        index = FlakyIndex(range(5), failing={0})
        manager, _ = self.make_quarantined(index)
        attempts_before = len(index.attempts)
        for _ in range(5):
            heat_and_adapt(manager, 0)
        assert len(index.attempts) == attempts_before

    def test_other_units_still_migrate(self):
        index = FlakyIndex(range(5), failing={0})
        manager, _ = self.make_quarantined(index)
        heat_and_adapt(manager, 1)
        assert index.encodings[1] == FAST

    def test_forget_clears_quarantine(self):
        index = FlakyIndex(range(5), failing={0})
        manager, _ = self.make_quarantined(index)
        manager.forget(0)
        assert not manager.is_quarantined(0)
        assert manager.quarantined_units == 0


class TestDisable:
    def test_adaptation_disables_after_total_failures(self, monkeypatch):
        monkeypatch.setattr(manager_module, "DISABLE_AFTER_FAILURES", 3)
        index = FlakyIndex(range(10), failing=set(range(10)))
        manager = make_manager(index)
        assert not manager.adaptation_degraded
        events = []
        for unit in range(3):
            events.append(heat_and_adapt(manager, unit))
        assert manager.adaptation_degraded
        assert events[-1].adaptation_disabled
        assert not events[0].adaptation_disabled
        # Disabled manager stops sampling: the index keeps its layout.
        assert not any(manager.is_sample() for _ in range(20))

    def test_event_log_surfaces_the_degradation(self, monkeypatch):
        monkeypatch.setattr(manager_module, "DISABLE_AFTER_FAILURES", 2)
        index = FlakyIndex(range(10), failing=set(range(10)))
        manager = make_manager(index)
        heat_and_adapt(manager, 0)
        heat_and_adapt(manager, 1)
        assert sum(event.migration_failures for event in manager.events) == 2
        assert manager.counters.migration_failures == 2
        assert any(event.adaptation_disabled for event in manager.events)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"delta": -0.1},
            {"delta": 1.5},
            {"skip_min": -1},
            {"max_sample_size": 0},
            {"initial_skip_length": 11},  # above skip_max=10
            {"initial_skip_length": 1, "skip_min": 2},  # below skip_min
        ],
    )
    def test_bad_config_rejected(self, overrides):
        defaults = dict(encoding_order=(COMPACT, FAST), skip_min=0, skip_max=10)
        defaults.update(overrides)
        with pytest.raises(ValueError):
            ManagerConfig(**defaults)

    def test_boundary_values_accepted(self):
        ManagerConfig(
            encoding_order=(COMPACT, FAST),
            epsilon=0.99,
            delta=0.01,
            skip_min=0,
            skip_max=0,
            initial_skip_length=0,
        )
