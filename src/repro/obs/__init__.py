"""repro.obs — the unified observability layer.

One subsystem carries the whole decision trail of the adaptation
machinery (what was sampled, classified, and migrated, and what each
decision cost) across every index family:

* :mod:`repro.obs.metrics` — named counters/gauges/fixed-bucket
  histograms in a :class:`MetricsRegistry`, exported as a Prometheus
  text-exposition snapshot;
* :mod:`repro.obs.tracing` — nestable spans (``lookup`` ->
  ``leaf_probe:succinct``, ``adaptation_phase`` ->
  ``migration:gapped->succinct``) over pluggable sinks;
* :mod:`repro.obs.sinks` — JSONL and in-memory sinks;
* :mod:`repro.obs.runtime` — the process-global install point; the
  default is *no* telemetry, and every probe in the hot paths is a
  single global read + branch (see ``benchmarks/bench_obs_overhead.py``);
* :mod:`repro.obs.schema` / :mod:`repro.obs.validate` — trace schema
  validation against ``docs/trace_schema.json``;
* :mod:`repro.obs.introspect` — the uniform ``.stats()`` /
  ``.describe()`` contract all six index families implement;
* :mod:`repro.obs.jsonable` — the one JSON-coercion helper every
  exporter (including ``repro.harness.export``) shares;
* :mod:`repro.obs.report` — the human-readable console exporter;
* :mod:`repro.obs.distributed` — trace-context propagation vocabulary
  (trace ids, the span-name -> layer map the stitcher attributes by);
* :mod:`repro.obs.stitch` — joins per-process JSONL traces into
  per-request causal trees (``python -m repro.obs.stitch``);
* :mod:`repro.obs.top` — the live ops console over the STATS opcode
  (``python -m repro.obs.top``).

Quickstart::

    from repro.obs import Telemetry

    with Telemetry.with_jsonl_trace("trace.jsonl", op_sample_every=64) as t:
        run_workload(index)
    print(t.registry.to_prometheus())
    print(index.describe())

See ``docs/observability.md`` for naming conventions, the span
taxonomy, and the overhead budget.
"""

from repro.obs.distributed import (
    MAX_TRACE_ID,
    SPAN_LAYERS,
    TraceContext,
    layer_of,
    new_trace_id,
)
from repro.obs.jsonable import jsonable_key, to_jsonable
from repro.obs.metrics import (
    COST_NS_BUCKETS,
    LATENCY_BUCKETS,
    RATIO_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.report import render_metrics, render_telemetry, render_trace_summary
from repro.obs.runtime import Telemetry, active, active_registry, active_tracer
from repro.obs.schema import TraceSchemaError, validate_trace, validate_trace_file
from repro.obs.sinks import InMemoryTraceSink, JsonlTraceSink, read_jsonl_trace
from repro.obs.tracing import Span, Tracer, TraceSink

__all__ = [
    "COST_NS_BUCKETS",
    "LATENCY_BUCKETS",
    "MAX_TRACE_ID",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemoryTraceSink",
    "JsonlTraceSink",
    "MetricsRegistry",
    "RATIO_BUCKETS",
    "SIZE_BUCKETS",
    "SPAN_LAYERS",
    "Span",
    "Telemetry",
    "TraceContext",
    "TraceSchemaError",
    "TraceSink",
    "Tracer",
    "active",
    "active_registry",
    "active_tracer",
    "jsonable_key",
    "layer_of",
    "new_trace_id",
    "parse_prometheus",
    "read_jsonl_trace",
    "render_metrics",
    "render_telemetry",
    "render_trace_summary",
    "to_jsonable",
    "validate_trace",
    "validate_trace_file",
]
