"""Tests for the metrics registry and the Prometheus exposition."""

import pytest

from repro.obs.metrics import (
    COST_NS_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    iter_instrument_names,
    parse_prometheus,
    sample_key,
    split_sample_key,
)


class TestCounter:
    def test_inc(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_inc_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)

    def test_set_total_is_monotonic(self):
        counter = Counter("x")
        counter.set_total(10)
        counter.set_total(10)  # idempotent re-ingestion is fine
        counter.set_total(12)
        with pytest.raises(ValueError, match="cannot move backwards"):
            counter.set_total(5)


class TestGauge:
    def test_set_goes_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10.5)
        gauge.set(2)
        assert gauge.value == 2


class TestHistogram:
    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", boundaries=(1, 1, 2))
        with pytest.raises(ValueError, match="at least one boundary"):
            Histogram("h", boundaries=())

    def test_bucket_placement(self):
        histogram = Histogram("h", boundaries=(10, 100))
        histogram.record(5)     # <= 10
        histogram.record(10)    # <= 10 (le is inclusive)
        histogram.record(50)    # <= 100
        histogram.record(1000)  # +Inf
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.cumulative_counts() == [2, 3, 4]
        assert histogram.count == 4
        assert histogram.total == 1065
        assert histogram.mean == pytest.approx(266.25)

    def test_empty_mean(self):
        assert Histogram("h", boundaries=(1,)).mean == 0.0

    def test_shared_bucket_constants_are_valid(self):
        for buckets in (SIZE_BUCKETS, COST_NS_BUCKETS):
            Histogram("h", boundaries=buckets)  # must not raise


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_name_cannot_change_type(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="already used"):
            registry.gauge("a")
        with pytest.raises(ValueError, match="already used"):
            registry.histogram("a")

    def test_ingest_counters_is_idempotent(self):
        registry = MetricsRegistry()
        registry.ingest_counters({"leaf_visit:gapped": 3})
        registry.ingest_counters({"leaf_visit:gapped": 3})
        registry.ingest_counters({"leaf_visit:gapped": 7})
        assert registry.counter("ops.leaf_visit:gapped").value == 7

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", boundaries=(10,)).record(3)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["bucket_counts"] == [1, 0]


class TestPrometheus:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("ops.leaf_visit:gapped", help="leaf visits").inc(41)
        registry.gauge("index.bytes").set(1024)
        registry.histogram("batch.size", boundaries=(2, 8)).record(4)
        return registry

    def test_roundtrip_through_parser(self):
        text = self.make_registry().to_prometheus()
        samples = parse_prometheus(text)
        assert samples["repro_ops_leaf_visit_gapped_total"] == 41
        assert samples["repro_index_bytes"] == 1024
        assert samples['repro_batch_size_bucket{le="+Inf"}'] == 1
        assert samples["repro_batch_size_count"] == 1
        names = iter_instrument_names(samples)
        assert "repro_batch_size_bucket" in names  # label variants collapse
        assert names == sorted(names)

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", boundaries=(1, 10))
        for value in (0.5, 5, 5, 100):
            histogram.record(value)
        samples = parse_prometheus(registry.to_prometheus())
        assert samples['repro_h_bucket{le="1"}'] == 1
        assert samples['repro_h_bucket{le="10"}'] == 3
        assert samples['repro_h_bucket{le="+Inf"}'] == 4

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus("repro_x 1\nnot a metric line at all!\n")

    def test_parser_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_prometheus("repro_x 1\nrepro_x 2\n")

    def test_parser_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            parse_prometheus("# TYPE repro_x counter\n")


class TestLabelEscaping:
    """Exporter escaping round-trips per the text exposition format."""

    HOSTILE_VALUES = (
        'path\\to"thing"',
        "line one\nline two",
        '\\"\n\\n',           # escape sequences adjacent to each other
        'trailing backslash\\',
        "}",                  # a brace inside a value must not end the label set
        'a="b",c="d"',        # a value that looks like more labels
    )

    def test_escape_is_invertible_through_the_scanner(self):
        # The scanner parses rendered (sanitized) sample names, so the
        # name here matches what the exporter emits.
        for value in self.HOSTILE_VALUES:
            key = sample_key("slo_state", (("objective", value),))
            name, labels = split_sample_key(key)
            assert name == "slo_state"
            assert labels == {"objective": value}, value

    def test_bad_escape_sequences_are_rejected(self):
        with pytest.raises(ValueError, match="bad escape"):
            parse_prometheus('repro_g{objective="oops\\t"} 1\n')
