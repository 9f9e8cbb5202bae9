"""Named-instrument metrics: counters, gauges, and fixed-bucket histograms.

The registry is deliberately wall-clock-free: counters and gauges hold
plain integers/floats, and histograms bucket *modeled* quantities
(modeled nanoseconds, batch sizes, entries migrated) against boundaries
fixed at creation time — nothing in the hot path ever reads a clock.

Two publication styles coexist:

* **push** — phase-level code (the adaptation manager, the Bloom filter
  on reset, the fault injector on a raise) grabs an instrument once and
  records into it.  These sites run at most once per adaptation phase,
  so their cost is irrelevant.
* **pull** — the per-operation :class:`~repro.sim.counters.OpCounters`
  streams are far too hot to publish per increment; instead exporters
  call :meth:`MetricsRegistry.ingest_counters` with a snapshot, which
  materializes one registry counter per event name.  The hot path pays
  nothing.

``to_prometheus`` renders the whole registry in the Prometheus text
exposition format (version 0.0.4); :func:`parse_prometheus` is the
matching minimal parser the CI smoke job and the tests use to prove the
output is well-formed without a third-party dependency.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

# Shared fixed boundaries.  Powers of two suit batch sizes and entry
# counts; the cost buckets span the modeled-ns range the cost model
# produces (tens of ns to tens of ms for a full merge).
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)
COST_NS_BUCKETS: Tuple[float, ...] = (
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000,
    250_000, 1_000_000, 10_000_000, 100_000_000,
)
RATIO_BUCKETS: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
# Wall-clock request latencies in *seconds*, log-spaced from 50us to 10s.
# The size/cost boundaries above would collapse every networked tail into
# one bucket; these are the default for every ``net.*`` and service
# op-latency histogram, so p99/p999 interpolation has resolution where
# asyncio round-trips actually land.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def set_total(self, total: int) -> None:
        """Install an absolute cumulative total (pull-style ingestion)."""
        if total < self.value:
            raise ValueError(
                f"counter {self.name!r} cannot move backwards "
                f"({self.value} -> {total})"
            )
        self.value = total


class Gauge:
    """A named value that may go up and down."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Install the current value."""
        self.value = value


class Histogram:
    """Fixed-boundary cumulative histogram (Prometheus semantics).

    ``boundaries`` are the *upper* bucket bounds; an implicit +Inf bucket
    catches everything beyond the last.  Recording is one bisect plus one
    list increment — no clocks, no allocation.
    """

    __slots__ = ("name", "help", "boundaries", "bucket_counts", "total", "count")

    def __init__(
        self,
        name: str,
        boundaries: Sequence[float] = SIZE_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = tuple(float(bound) for bound in boundaries)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one boundary")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} boundaries must strictly increase")
        self.name = name
        self.help = help
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +Inf last
        self.total = 0.0
        self.count = 0

    def record(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Observations <= each boundary, then the +Inf total."""
        running = 0
        out = []
        for bucket in self.bucket_counts:
            running += bucket
            out.append(running)
        return out

    @property
    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate, interpolated within its bucket.

        The rank ``q * count`` is located in the cumulative bucket
        counts and mapped back to a value by linear interpolation
        between the bucket's lower and upper boundary (the first
        bucket's lower edge is 0.0, or ``boundaries[0]`` when that is
        negative).

        Contract at the edges (tested in ``tests/obs/test_quantiles.py``):

        * **empty histogram** — returns 0.0 for every ``q`` (the
          :attr:`mean` convention), never raises;
        * ``q == 0.0`` — returns the lower edge of the first occupied
          bucket;
        * ``q == 1.0`` with no overflow — returns the upper boundary of
          the last occupied bucket;
        * **rank in the +Inf overflow bucket** — returns the last finite
          boundary, exactly (no interpolation into the unbounded bucket:
          the estimate can only under-report past the configured range,
          never invent values);
        * ``q`` outside ``[0, 1]`` — raises :class:`ValueError`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        if target > self.count - self.bucket_counts[-1]:
            return self.boundaries[-1]  # rank lands in the +Inf bucket: clamp
        running = 0
        lower = min(0.0, self.boundaries[0])
        for upper, bucket in zip(self.boundaries, self.bucket_counts):
            if bucket and running + bucket >= target:
                fraction = (target - running) / bucket
                return lower + (upper - lower) * fraction
            running += bucket
            lower = upper
        return self.boundaries[-1]

    def summary(self) -> Dict[str, float]:
        """Count, sum, mean, and the tail quantiles as one plain dict."""
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }


class MetricsRegistry:
    """Get-or-create home of every named instrument.

    Every instrument is label-free and keyed by its name; only histogram
    buckets carry a label (``le``) in the Prometheus exposition.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._kinds: Dict[str, str] = {}

    # -- instrument access ----------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        """The counter named ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_fresh(name, "counter")
            instrument = self._counters[name] = Counter(name, help)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_fresh(name, "gauge")
            instrument = self._gauges[name] = Gauge(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        boundaries: Sequence[float] = SIZE_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_fresh(name, "histogram")
            instrument = self._histograms[name] = Histogram(name, boundaries, help)
        return instrument

    def _check_fresh(self, name: str, kind: str) -> None:
        existing = self._kinds.get(name)
        if existing is not None and existing != kind:
            raise ValueError(f"instrument name {name!r} already used with another type")
        self._kinds[name] = kind

    # -- read-only peeks (no instrument creation) ------------------------
    def histogram_summaries(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        """``{name: summary}`` for every histogram under ``prefix``."""
        return {
            name: h.summary()
            for name, h in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    # -- pull-style ingestion -------------------------------------------
    def ingest_counters(self, snapshot: Dict[str, int], prefix: str = "ops") -> None:
        """Publish an :class:`OpCounters` snapshot as absolute counters.

        Event names keep their conventional form (``leaf_visit:gapped``)
        under ``<prefix>.``; repeated ingestion of growing snapshots is
        idempotent because totals are installed, not added.
        """
        for event, count in snapshot.items():
            # repro: ignore[RA004] -- generic republishing helper: names are
            # <prefix>.<event> for caller-supplied snapshots, open-ended by design.
            self.counter(f"{prefix}.{event}").set_total(count)

    # -- introspection ---------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """All instruments and their current values as plain dicts."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "mean": h.mean,
                    "boundaries": list(h.boundaries),
                    "bucket_counts": list(h.bucket_counts),
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- Prometheus text exposition --------------------------------------
    def to_prometheus(self, namespace: str = "repro") -> str:
        """The whole registry in text exposition format 0.0.4."""
        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = _prom_name(namespace, name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            if counter.help:
                lines.append(f"# HELP {metric} {counter.help}")
            lines.append(f"{metric} {_prom_value(counter.value)}")
        for name, gauge in sorted(self._gauges.items()):
            metric = _prom_name(namespace, name)
            lines.append(f"# TYPE {metric} gauge")
            if gauge.help:
                lines.append(f"# HELP {metric} {gauge.help}")
            lines.append(f"{metric} {_prom_value(gauge.value)}")
        for name, histogram in sorted(self._histograms.items()):
            metric = _prom_name(namespace, name)
            lines.append(f"# TYPE {metric} histogram")
            if histogram.help:
                lines.append(f"# HELP {metric} {histogram.help}")
            cumulative = histogram.cumulative_counts()
            for bound, count in zip(histogram.boundaries, cumulative):
                lines.append(f'{metric}_bucket{{le="{_prom_value(bound)}"}} {count}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative[-1]}')
            lines.append(f"{metric}_sum {_prom_value(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"


_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")
_SAMPLE_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*")
_SAMPLE_VALUE = re.compile(r"^[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN)$")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def _prom_name(namespace: str, name: str) -> str:
    return _NAME_SANITIZE.sub("_", f"{namespace}_{name}")


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format (0.0.4)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def sample_key(name: str, labels: Sequence[Tuple[str, str]]) -> str:
    """The canonical sample key: ``name`` or ``name{label="escaped"}``."""
    if not labels:
        return name
    rendered = ",".join(f'{label}="{escape_label_value(value)}"' for label, value in labels)
    return f"{name}{{{rendered}}}"


def split_sample_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Parse a sample key back into ``(name, {label: unescaped value})``."""
    name, labels, rest = _parse_name_and_labels(key, 0)
    if rest:
        raise ValueError(f"trailing text {rest!r} after sample key")
    return name, dict(labels)


def _parse_name_and_labels(line: str, lineno: int) -> Tuple[str, List[Tuple[str, str]], str]:
    """Scan ``name{label="value",...}`` off the front of ``line``.

    Label values are unescaped; the remainder of the line is returned
    verbatim.  A regex cannot do this — escaped ``"`` and ``}`` inside a
    value defeat any ``[^}]*`` label capture — so this is a character
    scanner, and it is what makes :func:`parse_prometheus` able to
    round-trip values containing backslashes, quotes, and newlines.
    """
    where = f"line {lineno}: " if lineno else ""
    name_match = _SAMPLE_NAME.match(line)
    if name_match is None:
        raise ValueError(f"{where}malformed sample name in {line!r}")
    name = name_match.group(0)
    position = name_match.end()
    labels: List[Tuple[str, str]] = []
    if position < len(line) and line[position] == "{":
        position += 1
        try:
            while True:
                if line[position] == "}":
                    position += 1
                    break
                label_match = _LABEL_NAME.match(line[position:])
                if label_match is None:
                    raise ValueError(f"{where}malformed label name at {line[position:]!r}")
                label = label_match.group(0)
                position += label_match.end()
                if line[position : position + 2] != '="':
                    raise ValueError(f"{where}label {label!r} missing quoted value")
                position += 2
                chars: List[str] = []
                while True:
                    char = line[position]
                    if char == "\\":
                        escaped = _ESCAPES.get(line[position + 1])
                        if escaped is None:
                            raise ValueError(
                                f"{where}bad escape \\{line[position + 1]!r} "
                                f"in label {label!r}"
                            )
                        chars.append(escaped)
                        position += 2
                    elif char == '"':
                        position += 1
                        break
                    else:
                        chars.append(char)
                        position += 1
                labels.append((label, "".join(chars)))
                if line[position] == ",":
                    position += 1
        except IndexError:
            raise ValueError(f"{where}unterminated label set in {line!r}") from None
    return name, labels, line[position:]


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse a text exposition into ``{name{labels}: value}``.

    Sample keys are re-rendered canonically (escaped label values, no
    whitespace), so ``split_sample_key`` recovers the original label
    values exactly — including ``\\``, ``"``, and newlines.  Raises
    :class:`ValueError` on any malformed line — this is the validation
    the CI smoke job runs over exported snapshots.
    """
    samples: Dict[str, float] = {}
    types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            kinds = ("counter", "gauge", "histogram", "summary", "untyped")
            if len(parts) != 4 or parts[3] not in kinds:
                raise ValueError(f"line {lineno}: malformed TYPE comment {raw!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        name, labels, rest = _parse_name_and_labels(line, lineno)
        if not rest or not rest[0].isspace():
            raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        value_text = rest.strip()
        if _SAMPLE_VALUE.match(value_text) is None:
            raise ValueError(f"line {lineno}: malformed sample value {value_text!r}")
        key = sample_key(name, labels)
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = (
            float("inf") if value_text in ("Inf", "+Inf") else float(value_text)
        )
    if not samples:
        raise ValueError("exposition contains no samples")
    return samples


def iter_instrument_names(samples: Iterable[str]) -> List[str]:
    """Bare metric names (labels and suffixes stripped) from parse output."""
    names = set()
    for key in samples:
        names.add(key.split("{", 1)[0])
    return sorted(names)
