"""Self-time arithmetic: per-layer self times must add up to their roots."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
import spans
from spans import Span


def test_nested_self_times_sum_to_the_root():
    # One thread: root [0, 10] cpu 8; child a [1, 4] cpu 3; grandchild [2, 3]
    # cpu 1 under a; child b [5, 9] cpu 2 (it slept for 2).
    recorded = {
        (0, 0): Span("root", 0.0, 10.0, 8.0, None),
        (0, 1): Span("a", 1.0, 4.0, 3.0, (0, 0)),
        (0, 2): Span("a.inner", 2.0, 3.0, 1.0, (0, 1)),
        (0, 3): Span("b", 5.0, 9.0, 2.0, (0, 0)),
    }
    own = spans.self_times(recorded)
    assert own[(0, 0)] == (3.0, 0.0)  # 8 - 3 - 2 busy; (10-8) - 0 - 2 waiting
    assert own[(0, 1)] == (2.0, 0.0)
    assert own[(0, 3)] == (2.0, 2.0)
    busy = sum(b for b, _ in own.values())
    wait = sum(w for _, w in own.values())
    assert busy == pytest.approx(recorded[(0, 0)].cpu)
    assert busy + wait == pytest.approx(recorded[(0, 0)].wall)


def test_a_child_on_another_thread_keeps_its_own_cpu():
    # The router (thread 0) waits 6 of its 8 seconds for two shard calls
    # that run on pool threads; their CPU is theirs, not subtracted twice.
    recorded = {
        (0, 0): Span("router", 0.0, 8.0, 2.0, None),
        (1, 0): Span("shard", 1.0, 4.0, 3.0, (0, 0)),
        (2, 0): Span("shard", 1.5, 7.0, 4.0, (0, 0)),
    }
    totals = spans.aggregate(recorded)
    assert totals["router"].busy == 2.0 and totals["router"].wait == 6.0
    assert totals["shard"].busy == 7.0 and totals["shard"].count == 2
    assert sum(t.busy for t in totals.values()) == sum(s.cpu for s in recorded.values())
    assert spans.child_counts(recorded, "router") == (1, 2)


def test_overhead_moves_to_its_own_row_and_the_sum_is_kept():
    recorded = {
        (0, 0): Span("root", 0.0, 10.0, 10.0, None),
        (0, 1): Span("leaf", 1.0, 2.0, 1.0, (0, 0)),
        (0, 2): Span("leaf", 3.0, 4.0, 1.0, (0, 0)),
    }
    totals = spans.aggregate(recorded, inner_overhead=0.1, outer_overhead=0.2)
    assert totals["leaf"].busy == pytest.approx(1.8)
    assert totals["root"].busy == pytest.approx(8.0 - 0.1 - 0.4)
    assert totals[spans.OVERHEAD].busy == pytest.approx(0.7)
    assert sum(t.busy for t in totals.values()) == pytest.approx(10.0)


def test_window_selects_by_start_time():
    recorded = {
        (0, 0): Span("op", 0.0, 1.0, 1.0, None),
        (0, 1): Span("op", 5.0, 6.0, 1.0, None),
    }
    assert spans.aggregate(recorded, since=2.0)["op"].count == 1


def test_recorder_nests_links_across_a_pool_and_unpatches():
    recorder = spans.Recorder()

    class Layer:
        def outer(self, pool):
            return pool.submit(self.inner, [1, 2, 3]).result()

        def inner(self, keys):
            deadline = time.thread_time() + 0.002
            while time.thread_time() < deadline:
                pass
            return threading.get_ident()

    original = Layer.inner
    recorder.patch(Layer, "outer", "outer")
    recorder.patch(Layer, "inner", "inner", sized_by=1)
    recorder.patch_executor()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            worker = Layer().outer(pool)
    finally:
        recorder.unpatch()
    assert worker != threading.get_ident()
    assert Layer.inner is original and ThreadPoolExecutor.submit.__name__ == "submit"
    recorded = recorder.spans()
    (outer_id,) = [i for i, s in recorded.items() if s.name == "outer"]
    (inner,) = [s for s in recorded.values() if s.name == "inner"]
    assert inner.parent == outer_id and inner.units == 3
    totals = spans.aggregate(recorded)
    assert totals["inner"].busy >= 0.002
    assert totals["outer"].busy < totals["inner"].busy  # it only waited
    assert totals["outer"].wait >= 0.0015


def test_calibrate_finds_a_small_positive_cost():
    recorder = spans.Recorder()
    recorder.calibrate(calls=2_000)
    assert 0.0 < recorder.inner_overhead < 50e-6
    assert 0.0 <= recorder.outer_overhead < 50e-6
