"""Tests for the operation counters."""

import sys
import threading

from repro.sim.counters import OpCounters


class TestOpCounters:
    def test_add_and_get(self):
        counters = OpCounters()
        counters.counts["inner_visit"] += 1
        counters.counts["inner_visit"] += 4
        assert counters.get("inner_visit") == 5
        assert counters.get("unknown") == 0

    def test_snapshot_is_copy(self):
        counters = OpCounters()
        counters.counts["x"] += 1
        snap = counters.snapshot()
        counters.counts["x"] += 1
        assert snap["x"] == 1
        assert counters.get("x") == 2

    def test_diff(self):
        counters = OpCounters()
        counters.counts["a"] += 3
        earlier = counters.snapshot()
        counters.counts["a"] += 2
        counters.counts["b"] += 1
        assert counters.diff(earlier) == {"a": 2, "b": 1}

    def test_diff_skips_zero_deltas(self):
        counters = OpCounters()
        counters.counts["a"] += 1
        assert counters.diff(counters.snapshot()) == {}

    def test_diff_ignores_events_absent_now(self):
        # diff iterates the *current* counts: an event that appears only
        # in the earlier snapshot (e.g. after a reset) is silently
        # dropped, never reported as a negative delta.
        counters = OpCounters()
        counters.counts["a"] += 3
        earlier = counters.snapshot()
        counters.reset()
        counters.counts["b"] += 2
        assert counters.diff(earlier) == {"b": 2}

    def test_diff_against_empty_snapshot(self):
        counters = OpCounters()
        counters.counts["a"] += 5
        assert counters.diff({}) == {"a": 5}

    def test_diff_reports_decreases_when_event_survives(self):
        counters = OpCounters()
        counters.counts["a"] += 5
        earlier = counters.snapshot()
        counters.reset()
        counters.counts["a"] += 2
        assert counters.diff(earlier) == {"a": -3}

    def test_snapshot_of_empty_counters(self):
        assert OpCounters().snapshot() == {}

    def test_merge(self):
        a = OpCounters()
        b = OpCounters()
        a.counts["x"] += 1
        b.counts["x"] += 2
        b.counts["y"] += 3
        a.merge(b)
        assert a.get("x") == 3
        assert a.get("y") == 3

    def test_reset(self):
        counters = OpCounters()
        counters.counts["x"] += 1
        counters.reset()
        assert len(counters) == 0

    def test_iter(self):
        counters = OpCounters()
        counters.counts["a"] += 2
        assert dict(counters) == {"a": 2}


def test_diff_survives_an_event_added_by_another_thread():
    """A replica's reader diffs its copy's counters outside the copy lock
    while a writer adds first-seen events under it."""
    counters = OpCounters()
    for i in range(64):
        counters.counts[f"event{i}"] += 1
    before = counters.snapshot()
    stop = threading.Event()

    def writer():
        for i in range(20_000):
            if stop.is_set():
                return
            counters.counts[f"new{i}"] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(200):
            counters.diff(before)
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
