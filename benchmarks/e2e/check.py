"""Correctness, always on: every stored reply is replayed against a model.

Verification runs *after* the timed phases, on the results the runners
kept, so it costs the measurement nothing.  Every GET is compared with
a driver-side dict, every SCAN must be the ordered prefix of the model
from its start key, and every structure's own ``verify()`` runs at the
end.  All failures land in one :class:`Verdict`, which sets ``failed``
in the output and the exit code.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from opstream import (
    GET,
    INDEX_SCAN_COUNT,
    PUT,
    ROUTER_SCAN_COUNT,
    SCAN,
    WIRE_SCAN_COUNT,
    IndexStream,
    RouterStream,
    WireStream,
)

from repro.net.protocol import OP_GET, OP_PUT, OP_SCAN, ProtocolError, decode_response

_CORRUPTED = ("corrupted expectation",)


@dataclass
class Verdict:
    """Ops attempted, ops that failed, and the first few reasons."""

    attempted: int = 0
    failed: int = 0
    examples: List[str] = field(default_factory=list)

    def expect(self, op: int, what: str, got: Any, expected: Any) -> None:
        self.attempted += 1
        if got != expected:
            self.fail(f"op {op} {what}: got {_short(got)}, expected {_short(expected)}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(message)

    def run_verify(self, what: str, verify: Callable[[], None]) -> None:
        """A structure's own invariant check counts as one attempted op."""
        self.attempted += 1
        try:
            verify()
        except Exception as error:  # noqa: BLE001 - any invariant failure is a finding
            self.fail(f"{what}.verify(): {type(error).__name__}: {error}")


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


class Model:
    """A dict plus the sorted universe of keys that will ever exist."""

    def __init__(self, pairs: Sequence[Tuple[Any, int]], later_keys: Sequence[Any] = ()) -> None:
        self.values: Dict[Any, int] = dict(pairs)
        self.universe = sorted(set(self.values).union(later_keys))

    def scan(self, start: Any, count: int) -> List[Tuple[Any, int]]:
        """The first ``count`` live pairs with key >= ``start``, in order."""
        found: List[Tuple[Any, int]] = []
        values = self.values
        for position in range(bisect.bisect_left(self.universe, start), len(self.universe)):
            key = self.universe[position]
            if key in values:
                found.append((key, values[key]))
                if len(found) == count:
                    break
        return found


def check_index(
    stream: IndexStream,
    results: Sequence[Any],
    model: Model,
    verdict: Verdict,
    corrupt: Optional[int] = None,
    insert_value: Callable[[Any], int] = lambda key: 0,
) -> None:
    """``btree_adapt`` / ``trie_adapt``: lookups, inserts of new keys, scans."""
    for op, (kind, key) in enumerate(zip(stream.kinds, stream.keys)):
        if kind == GET:
            expected: Any = model.values.get(key)
        elif kind == PUT:
            expected = key not in model.values  # insert returns "was new"
            model.values[key] = insert_value(key)
        else:
            expected = model.scan(key, INDEX_SCAN_COUNT)
        if op == corrupt:
            expected = _CORRUPTED
        verdict.expect(op, ("lookup", "insert", "scan")[kind], results[op], expected)


def check_router(
    stream: RouterStream,
    results: Sequence[Any],
    model: Model,
    verdict: Verdict,
    corrupt: Optional[int] = None,
) -> None:
    """``router_batch``: get_many values, put_many applied in order, scans."""
    for op, (kind, payload) in enumerate(zip(stream.kinds, stream.payloads)):
        if kind == GET:
            expected: Any = [model.values.get(key) for key in payload]
            what = "get_many"
        elif kind == PUT:
            model.values.update(payload)
            expected, what = None, "put_many"
        else:
            expected, what = model.scan(payload, ROUTER_SCAN_COUNT), "scan"
        if op == corrupt:
            expected = _CORRUPTED
        verdict.expect(op, what, results[op], expected)


def check_wire(
    stream: WireStream,
    bodies: Sequence[Optional[bytes]],
    bounds: Sequence[Tuple[int, int]],
    model: Model,
    verdict: Verdict,
    corrupt: Optional[int] = None,
) -> None:
    """Wire workloads: fully decode every reply body and compare.

    Within one range of ``bounds`` the requests were in flight together,
    so GETs see the model as of the range's start and its PUTs apply
    afterwards (the stream guarantees they do not touch the same keys).
    An unanswered request, a shed and an error status all count as
    failures.
    """
    opcode = {GET: OP_GET, PUT: OP_PUT, SCAN: OP_SCAN}
    for lo, hi in bounds:
        for op in range(lo, hi):
            kind, key, body = stream.kinds[op], stream.keys[op], bodies[op]
            if body is None:
                verdict.attempted += 1
                verdict.fail(f"op {op}: no reply")
                continue
            try:
                response = decode_response(body, opcode[kind])
            except ProtocolError as error:
                verdict.attempted += 1
                verdict.fail(f"op {op}: undecodable reply: {error}")
                continue
            if kind == GET:
                value = model.values.get(key)
                expected: Any = (True, True, value) if value is not None else (True, False, None)
                got: Any = (response.ok, response.found, response.value)
            elif kind == PUT:
                expected, got = True, response.ok
            else:
                expected = (True, model.scan(key, WIRE_SCAN_COUNT))
                got = (response.ok, response.pairs)
            if op == corrupt:
                expected = _CORRUPTED
            verdict.expect(op, ("GET", "PUT", "SCAN")[kind], got, expected)
        for op in range(lo, hi):
            if stream.kinds[op] == PUT and bodies[op] is not None:
                model.values[stream.keys[op]] = stream.values[op]


def check_readback(router: Any, written: Dict[int, int], verdict: Verdict) -> None:
    """After a crash + recover: every acked PUT must read back its last value."""
    keys = list(written)
    for offset in range(0, len(keys), 512):
        chunk = keys[offset : offset + 512]
        for key, value in zip(chunk, router.get_many(chunk)):
            verdict.expect(-1, f"acked PUT {key} after recovery", value, written[key])
