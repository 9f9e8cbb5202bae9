"""Trace sinks: where completed spans go.

All sinks receive flat span dicts (see ``docs/trace_schema.json``).
Values inside ``attributes`` are coerced through the shared
:func:`~repro.obs.jsonable.to_jsonable` helper at emission time, so
enums, dataclasses, Counters, and bytes serialize uniformly everywhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.obs.jsonable import to_jsonable

#: Spans buffered per write, so tracing a harness run does not pay one
#: syscall per span.
_FLUSH_EVERY = 256


class InMemoryTraceSink:
    """Collects span records in a list (tests, console reports)."""

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self.closed = False

    def emit(self, record: Dict) -> None:
        record["attributes"] = to_jsonable(record["attributes"])
        self.records.append(record)

    def close(self) -> None:
        self.closed = True

    def by_name(self, name: str) -> List[Dict]:
        """All records with the given span name."""
        return [record for record in self.records if record["name"] == name]


class JsonlTraceSink:
    """Appends one JSON document per span to a file, in batches."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w")
        self._buffer: List[str] = []
        self.emitted = 0

    def emit(self, record: Dict) -> None:
        record["attributes"] = to_jsonable(record["attributes"])
        self._buffer.append(json.dumps(record, sort_keys=True))
        self.emitted += 1
        if len(self._buffer) >= _FLUSH_EVERY:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def close(self) -> None:
        self._flush()
        self._handle.close()


def read_jsonl_trace(path: Union[str, Path]) -> List[Dict]:
    """Load a JSONL trace back into span dicts (schema validation, tests)."""
    records = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
