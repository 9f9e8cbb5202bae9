"""Tests for the span tracer and its sinks."""

import pytest

from repro.bptree.leaves import LeafEncoding
from repro.obs.sinks import InMemoryTraceSink, JsonlTraceSink, read_jsonl_trace
from repro.obs.tracing import Tracer


def make_tracer(op_sample_every=0):
    sink = InMemoryTraceSink()
    return Tracer(sink, op_sample_every=op_sample_every), sink


class TestSpanNesting:
    def test_children_carry_parent_id(self):
        tracer, sink = make_tracer()
        outer = tracer.start("adaptation_phase")
        inner = tracer.start("classify")
        tracer.end(inner)
        tracer.end(outer)
        classify, phase = sink.records
        assert phase["name"] == "adaptation_phase"
        assert phase["parent_id"] is None
        assert classify["parent_id"] == phase["span_id"]

    def test_emission_is_post_order(self):
        tracer, sink = make_tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.end(inner)
        tracer.end(outer)
        assert [record["name"] for record in sink.records] == ["inner", "outer"]

    def test_sequence_numbers_order_spans(self):
        tracer, sink = make_tracer()
        span = tracer.start("lookup")
        tracer.end(span)
        (record,) = sink.records
        assert record["seq_end"] > record["seq_start"] >= 1

    def test_end_closes_abandoned_children(self):
        tracer, sink = make_tracer()
        outer = tracer.start("outer")
        tracer.start("forgotten")
        tracer.end(outer)
        names = [record["name"] for record in sink.records]
        assert names == ["forgotten", "outer"]

    def test_attributes_merge_at_end(self):
        tracer, sink = make_tracer()
        span = tracer.start("migration:gapped->succinct", unit=3)
        span.set(entries=128)
        tracer.end(span, outcome="ok")
        (record,) = sink.records
        assert record["attributes"] == {"unit": 3, "entries": 128, "outcome": "ok"}

    def test_event_is_instantaneous_child(self):
        tracer, sink = make_tracer()
        span = tracer.start("lookup")
        tracer.event("descent", inner_visits=2)
        tracer.end(span)
        descent, lookup = sink.records
        assert descent["seq_start"] == descent["seq_end"]
        assert descent["parent_id"] == lookup["span_id"]

    def test_context_manager(self):
        tracer, sink = make_tracer()
        with tracer.span("merge", entries=10):
            pass
        assert sink.records[0]["name"] == "merge"


class TestOpSampling:
    def test_zero_disables_op_spans(self):
        tracer, sink = make_tracer(op_sample_every=0)
        assert tracer.op_start("lookup") is None
        assert sink.records == []

    def test_one_traces_every_op(self):
        tracer, _ = make_tracer(op_sample_every=1)
        spans = [tracer.op_start("lookup") for _ in range(5)]
        for span in spans:
            assert span is not None
            tracer.end(span)
        assert tracer.ops_skipped == 0

    def test_every_nth_op_is_sampled(self):
        tracer, _ = make_tracer(op_sample_every=3)
        sampled = 0
        for _ in range(9):
            span = tracer.op_start("lookup")
            if span is not None:
                sampled += 1
                tracer.end(span)
        assert sampled == 3
        assert tracer.ops_skipped == 6

    def test_negative_sampling_rejected(self):
        with pytest.raises(ValueError):
            make_tracer(op_sample_every=-1)


class TestClose:
    def test_close_flushes_open_spans_and_sink(self):
        tracer, sink = make_tracer()
        tracer.start("outer")
        tracer.start("inner")
        tracer.close()
        assert [record["name"] for record in sink.records] == ["inner", "outer"]
        assert sink.closed


class TestSinks:
    def test_memory_sink_coerces_attributes(self):
        tracer, sink = make_tracer()
        span = tracer.start("lookup", encoding=LeafEncoding.GAPPED, key=b"\x01")
        tracer.end(span)
        assert sink.records[0]["attributes"] == {"encoding": "gapped", "key": "01"}
        assert sink.by_name("lookup") == sink.records

    def test_jsonl_sink_roundtrips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceSink(path))
        for _ in range(3):
            tracer.end(tracer.start("lookup"))
        tracer.close()
        records = read_jsonl_trace(path)
        assert len(records) == 3
        assert all(record["name"] == "lookup" for record in records)
