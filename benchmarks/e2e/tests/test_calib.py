"""The normaliser on a synthetic drift: the box's speed must divide out."""

import calib
import pytest
from calib import CALIB_NOMINAL_S, Phase


def drifting_phase(slow_after: int, slices: int = 20, ops_per_slice: int = 100) -> Phase:
    """A phase whose box runs at nominal speed, then 2x slower from ``slow_after``."""
    bounds = [(i * ops_per_slice, (i + 1) * ops_per_slice) for i in range(slices)]
    speed = [1.0 if i < slow_after else 2.0 for i in range(slices + 1)]
    return Phase(
        bounds=bounds,
        elapsed=[0.5 * speed[i] for i in range(slices)],
        gaps=[[CALIB_NOMINAL_S * speed[i]] * 2 for i in range(slices + 1)],
    )


def test_nominal_box_is_left_alone():
    phase = drifting_phase(slow_after=99)
    assert phase.factor == pytest.approx(1.0)
    assert phase.normalised_seconds == pytest.approx(phase.raw_seconds) == pytest.approx(10.0)


@pytest.mark.parametrize("slow_after", [0, 5, 10, 15])
def test_a_slow_stretch_divides_out(slow_after):
    phase = drifting_phase(slow_after)
    # Work and quanta slow down together, so wherever the switch falls the
    # normalised time stays within a few percent of the 10 nominal seconds
    # (exact only when the whole phase ran at one speed).
    assert phase.normalised_seconds == pytest.approx(10.0, rel=0.07)
    assert phase.raw_seconds >= 10.0
    if slow_after == 0:
        assert phase.factor == pytest.approx(2.0)
        assert phase.normalised_seconds == pytest.approx(10.0)


def test_latency_quantile_uses_the_local_factor():
    phase = drifting_phase(slow_after=10)
    kinds = [0, 1] * 1000
    # Every op of kind 0 takes 1 ms of nominal time; kind 1 is ignored.
    latencies = []
    for index, (lo, hi) in enumerate(phase.bounds):
        slow = 2.0 if index >= 10 else 1.0
        latencies += [0.001 * slow if kinds[i] == 0 else 9.0 for i in range(lo, hi)]
    value, samples = phase.quantile_ms(latencies, kinds, 0, 0.5)
    assert samples == 1000
    assert value == pytest.approx(1.0, rel=0.02)
    assert phase.unstable_slices == 1  # the one slice the switch fell in


def test_a_timer_inside_a_latency_is_not_scaled():
    """0.4 ms of every sample is a timer: a 2x slower box adds only to the rest."""
    phase = drifting_phase(slow_after=0)
    kinds = [0] * 2000
    latencies = [0.0004 + 0.0006 * 2.0] * 2000
    assert phase.quantile_ms(latencies, kinds, 0, 0.5, unscaled=0.0004)[0] == pytest.approx(1.0)
    assert phase.quantile_ms(latencies, kinds, 0, 0.5)[0] == pytest.approx(0.8)


def test_phase_bounds_cover_the_range_once():
    bounds = calib.phase_bounds(100, 1200, 10)
    assert bounds[0] == (100, 200) and bounds[-1][1] == 1200 and len(bounds) == 11
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_measure_phase_times_slices_not_warmup():
    ran, order = [], []
    phase = calib.measure_phase(
        0, 110, 10,
        lambda lo, hi: ran.append((lo, hi)),
        after_slice=lambda index, done: order.append(("slice", index, done)),
        after_warmup=lambda: order.append(("warm",)),
    )
    assert ran[0] == (0, 10) and phase.bounds == ran[1:]
    assert order[0] == ("warm",) and order[-1] == ("slice", 9, 110)
    assert len(phase.gaps) == len(phase.bounds) + 1 == 11 and phase.ops == 100


def test_staged_setup_divides_by_the_speed_sampled_while_it_ran(monkeypatch):
    """A stage is charged its wall time minus the sampler's CPU, over the sampled factor."""

    class FakeSampler:
        def __init__(self):
            self.samples = [2 * CALIB_NOMINAL_S] * 5  # the box is twice as slow

        def start(self):
            pass

        def stop(self):
            pass

    clock = iter([10.0, 10.5 + 10 * CALIB_NOMINAL_S])
    monkeypatch.setattr(calib, "_Sampler", FakeSampler)
    monkeypatch.setattr(calib.time, "perf_counter", lambda: next(clock))
    staged = calib.Staged()
    assert staged.stage(lambda: "built") == "built"
    assert staged.raw_seconds == pytest.approx(0.5)
    assert staged.normalised_seconds == pytest.approx(0.25)


def test_a_real_stage_is_sampled_at_least_once_and_the_sampler_ends():
    import threading

    staged = calib.Staged()
    staged.stage(lambda: sum(range(200_000)))
    assert len(staged.samples) >= 1 and staged.raw_seconds > 0
    assert not any(isinstance(t, calib._Sampler) for t in threading.enumerate())


def test_measure_phase_takes_its_quanta_from_the_process_that_works():
    asked = []

    def server_quanta(count):
        asked.append(count)
        return [3 * CALIB_NOMINAL_S] * count

    phase = calib.measure_phase(0, 44, 4, lambda lo, hi: None, calibrate=server_quanta)
    assert asked == [calib.QUANTA_PER_GAP] * 5
    assert phase.factor == pytest.approx(3.0)
    assert phase.normalised_seconds == pytest.approx(phase.raw_seconds / 3.0)


def test_pin_leaves_one_cpu_and_the_two_slots_differ():
    import os

    allowed = os.sched_getaffinity(0)
    try:
        calib.pin(-1)
        last = os.sched_getaffinity(0)
        os.sched_setaffinity(0, allowed)
        calib.pin(0)
        first = os.sched_getaffinity(0)
    finally:
        os.sched_setaffinity(0, allowed)
    if len(allowed) > 1:
        assert len(first) == len(last) == 1 and first != last
    else:
        assert first == last == allowed
