"""SLO objectives and multi-window burn-rate states."""

import pytest

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.slo import (
    FAST_WINDOW_S,
    SLOW_WINDOW_S,
    Objective,
    SloMonitor,
    default_net_objectives,
    latency_objective,
    ratio_objective,
)


def shed_monitor():
    objective = ratio_objective(
        "shed_rate", bad=("net.shed",), total="net.requests", target=0.05
    )
    return objective, SloMonitor([objective])


class TestObjectiveValidation:
    def test_latency_needs_histogram_and_threshold(self):
        with pytest.raises(ValueError, match="histogram"):
            Objective(name="x", kind="latency", target=0.01)

    def test_ratio_needs_counters(self):
        with pytest.raises(ValueError, match="bad counters"):
            Objective(name="x", kind="ratio", target=0.05)

    def test_target_must_be_a_fraction(self):
        with pytest.raises(ValueError, match="target"):
            latency_objective("x", histogram="h", threshold_s=0.01, target=1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            Objective(name="x", kind="availability", target=0.01)

    def test_default_net_objectives_cover_latency_and_sheds(self):
        kinds = {objective.kind for objective in default_net_objectives()}
        assert kinds == {"latency", "ratio"}


class TestCumulativeSignals:
    def test_latency_counts_observations_above_threshold(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("net.request_seconds", boundaries=LATENCY_BUCKETS)
        objective = latency_objective(
            "p99", histogram="net.request_seconds", threshold_s=0.01
        )
        for _ in range(98):
            histogram.record(0.001)
        histogram.record(0.5)
        histogram.record(0.5)
        bad, total = objective.cumulative(registry)
        assert (bad, total) == (2.0, 100.0)

    def test_missing_instruments_read_as_zero(self):
        objective, _monitor = shed_monitor()
        assert objective.cumulative(MetricsRegistry()) == (0.0, 0.0)


class TestBurnRateStates:
    def test_flips_ok_to_page_under_sustained_2x_overload(self):
        """The acceptance scenario: a healthy run, then forced overload.

        At 2x offered load half of all requests shed; with a 5% budget
        that is a burn rate of 10 — far beyond ``page_burn`` on both
        windows once the overload has been sustained.
        """
        _objective, monitor = shed_monitor()
        registry = MetricsRegistry()
        requests = registry.counter("net.requests", "requests")
        sheds = registry.counter("net.shed", "sheds")

        tick = FAST_WINDOW_S / 6
        now = 0.0
        for _ in range(20):  # healthy: nothing shed
            requests.inc(100)
            states = monitor.observe(registry, now)
            now += tick
        assert states == {"shed_rate": "ok"}

        # 2x overload (every other request shed) for longer than the slow window.
        for _ in range(int(SLOW_WINDOW_S / tick) + 10):
            requests.inc(200)
            sheds.inc(100)
            states = monitor.observe(registry, now)
            now += tick
        assert states == {"shed_rate": "page"}
        status = monitor.snapshot()["objectives"]["shed_rate"]
        assert status["burn_fast"] == pytest.approx(10.0)
        assert status["burn_slow"] == pytest.approx(10.0)

    def test_brief_blip_warns_at_most_but_never_pages(self):
        _objective, monitor = shed_monitor()
        registry = MetricsRegistry()
        requests = registry.counter("net.requests", "requests")
        sheds = registry.counter("net.shed", "sheds")

        now = 0.0
        for _ in range(int(SLOW_WINDOW_S / 2)):  # healthy history, 1 s ticks
            requests.inc(100)
            monitor.observe(registry, now)
            now += 1.0
        for _ in range(int(FAST_WINDOW_S)):  # a fire as long as the fast window
            requests.inc(100)
            sheds.inc(50)
            states = monitor.observe(registry, now)
            now += 1.0
            # The slow window dilutes the blip below PAGE_BURN, so the
            # fast window alone must never page.
            assert states["shed_rate"] != "page"
        assert states["shed_rate"] == "warn"
        status = monitor.snapshot()["objectives"]["shed_rate"]
        assert status["burn_fast"] == pytest.approx(10.0)

    def test_gauges_ride_the_registry_with_objective_labels(self):
        _objective, monitor = shed_monitor()
        registry = MetricsRegistry()
        requests = registry.counter("net.requests", "requests")
        sheds = registry.counter("net.shed", "sheds")
        monitor.observe(registry, 0.0)  # zero baseline sample
        requests.inc(10)
        sheds.inc(10)
        monitor.observe(registry, 1.0)
        state = registry.get_gauge("slo.state", {"objective": "shed_rate"})
        assert state is not None
        assert state.value == 2.0  # page
        assert 'objective="shed_rate"' in registry.to_prometheus()

    def test_worst_state_is_the_maximum(self):
        latency = latency_objective("lat", histogram="h", threshold_s=0.01)
        ratio = ratio_objective("shed", bad=("b",), total="t", target=0.05)
        monitor = SloMonitor([latency, ratio])
        registry = MetricsRegistry()
        total = registry.counter("t", "total")
        bad = registry.counter("b", "bad")
        monitor.observe(registry, 0.0)  # zero baseline sample
        total.inc(10)
        bad.inc(10)
        monitor.observe(registry, 1.0)
        assert monitor.state_of("lat") == "ok"
        assert monitor.state_of("shed") == "page"
        assert monitor.worst_state() == "page"

    def test_monitor_rejects_bad_configuration(self):
        objective, _monitor = shed_monitor()
        with pytest.raises(ValueError):
            SloMonitor([])
        with pytest.raises(ValueError):
            SloMonitor([objective, objective])
