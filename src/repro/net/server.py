"""The asyncio TCP front end: framing, admission, coalescing, backpressure.

One :class:`NetServer` owns a :class:`~repro.net.tenancy.TenantDirectory`
(tenant -> shard group), a :class:`~repro.net.coalescer.Coalescer`, and
the directory's :class:`~repro.core.budget.ResourceArbiter`.  Each
connection is an :class:`asyncio.Protocol`: one ``data_received`` splits
every complete frame it was handed and runs the request path as plain
calls — no task, future or lock per request — so a pipelined burst
reaches the coalescer in one loop pass, which is what gives it batches.
Every op takes the one path below (``_on_request``); it builds no
closure per request, and a read event reads the metrics registry and the
tracer once for all of its requests.

The request path, in order:

1. **decode** — a framing or body error (:class:`ProtocolError`, EOF
   mid-frame included) closes the connection without resynchronising;
   every length is bounds-checked and every body CRC-checked before any
   field is trusted.  An unknown tenant, or a key the tenant's index
   family cannot order, is answered alone (:data:`STATUS_UNKNOWN_TENANT`
   / :data:`STATUS_BAD_REQUEST`) and goes no further.
2. **admission** — the arbiter answers ``ok`` / ``throttled`` /
   ``overloaded`` from the tenant's token bucket and bounded inflight
   count.  Sheds become *responses* (:data:`STATUS_THROTTLED` /
   :data:`STATUS_OVERLOADED`): bounded queues with backpressure, never
   unbounded buffering.
3. **dispatch** — the request becomes one entry tuple that carries
   what its reply needs; GET/PUT entries enter the
   coalescer, SCAN/DELETE are single calls under the coalescer's rule
   (on the loop without a WAL, on the executor behind one); STATS
   always runs on the executor; PING answers inline.
4. **respond** — the coalescer hands each entry its result through the
   connection's ``_complete``, which releases the admission slot and
   encodes the reply into the connection's reply list; replies leave in
   one ``transport.write`` per loop pass.  A peer that stops reading its
   replies stops being read (``pause_writing`` -> ``pause_reading``).
   Request latency (loop time, decode through reply queued) lands in
   the ``net.request_seconds`` histogram with latency-scaled buckets.

Every counter/gauge name is a literal in a module table (RA004).
"""

from __future__ import annotations

import asyncio
import json
from functools import partial
from time import monotonic
from typing import Any, List, Optional, Set

from repro.core.budget import ADMIT_OK, SHED_THROTTLED
from repro.net.coalescer import Coalescer, Entry
from repro.net.protocol import (
    OP_DELETE,
    OP_GET,
    OP_NAMES,
    OP_PING,
    OP_PUT,
    OP_SCAN,
    OP_STATS,
    STATUS_BAD_REQUEST,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SERVER_ERROR,
    STATUS_THROTTLED,
    STATUS_UNKNOWN_TENANT,
    ProtocolError,
    Request,
    Response,
    decode_frame,
    decode_request,
    encode_frame,
    encode_response,
)
from repro.net.tenancy import TenantDirectory
from repro.obs.jsonable import to_jsonable
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.runtime import active_registry, active_tracer
from repro.obs.tracing import Span, Tracer
from repro.service.router import ShardRouter

#: RA004: literal instrument names for the serving path.
_COUNTERS = {
    "connections": "net.connections.opened",
    "disconnects": "net.connections.closed",
    "protocol_errors": "net.protocol_errors",
    "requests": "net.requests",
    "responses": "net.responses",
    "shed_throttled": "net.shed.throttled",
    "shed_overloaded": "net.shed.overloaded",
    "unknown_tenant": "net.unknown_tenant",
    "server_errors": "net.server_errors",
}
_GAUGES = {
    "inflight": "net.inflight",
}
_LATENCY_HISTOGRAM = "net.request_seconds"
_SERVICE_HISTOGRAM = "net.service_seconds"
#: RA004: span-name literals for the traced request path.
_SERVER_SPAN = "net.server.request"
_ADMISSION_EVENT = "net.admission"

#: Ops charged against the tenant token bucket per request kind; a scan
#: is priced by the rows it may return, amortized to its batch shape.
_SCAN_OP_WEIGHT = 0.05

#: Builds a response from all of its fields without the Python-level
#: ``__new__`` frame that calling ``Response(...)`` enters.
_new_tuple = tuple.__new__


def _count(key: str) -> None:
    registry = active_registry()
    if registry is not None:
        registry.counter(_COUNTERS[key]).inc()


class NetServer:
    """A TCP index server over one tenant directory."""

    def __init__(
        self,
        directory: TenantDirectory,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 128,
        admission: bool = True,
    ) -> None:
        self.directory = directory
        self.host = host
        self.port = port
        self.admission = admission
        self.coalescer = Coalescer(max_batch=max_batch)
        self._server: Optional[asyncio.AbstractServer] = None
        self._live: "Set[_Connection]" = set()
        self.connections = 0
        self.requests = 0
        self.responses = 0
        self.sheds = 0
        self.protocol_errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and begin accepting connections; ``self.port`` is real."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop live connections, release pools."""
        if self._server is not None:
            self._server.close()
            # Before wait_closed(): from 3.12 it waits for live transports.
            for connection in list(self._live):
                connection.abort()
            await self._server.wait_closed()
            self._server = None
        self.coalescer.close()

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # STATS snapshot (the ops-console payload)
    # ------------------------------------------------------------------
    def _stats_snapshot(self) -> "dict[str, Any]":
        """The structured console snapshot behind the STATS opcode.

        Keeps the original top-level ``tenants`` / ``arbiter`` keys (the
        pre-console payload) and layers the ops-console sections on top:
        server/coalescer counters, per-shard encoding mix + migrations +
        WAL lag, and latency histogram summaries.  Runs on the coalescer
        executor — never on the event loop.
        """
        snapshot = self.directory.stats()
        snapshot["server"] = {
            "admission": self.admission,
            "connections": self.connections,
            "requests": self.requests,
            "responses": self.responses,
            "sheds": self.sheds,
            "protocol_errors": self.protocol_errors,
        }
        snapshot["coalescer"] = {
            "enabled": self.coalescer.enabled,
            "max_batch": self.coalescer.max_batch,
            "batches_flushed": self.coalescer.batches_flushed,
            "requests_coalesced": self.coalescer.requests_coalesced,
        }
        snapshot["shards"] = {
            tenant: self.directory.router_for(tenant).stats().get("shards", [])
            for tenant in self.directory.tenants()
        }
        registry = active_registry()
        if registry is not None:
            snapshot["latency"] = registry.histogram_summaries("net.")
            counters = registry.snapshot()["counters"]
            snapshot["net_counters"] = {
                name: value
                for name, value in counters.items()
                if name.startswith("net.")
            }
        return dict(to_jsonable(snapshot))

    def _stats_payload(self) -> bytes:
        return json.dumps(self._stats_snapshot(), sort_keys=True).encode("utf-8")


class _Connection(asyncio.Protocol):
    """One client connection: frames in, the request path, frames out."""

    def __init__(self, server: NetServer) -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._tail = b""  # bytes of a frame still arriving
        self._replies: List[bytes] = []  # frames to leave in this pass's one write

    # ------------------------------------------------------------------
    # Transport callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self._server.connections += 1
        self._server._live.add(self)
        _count("connections")

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._transport = None
        self._server._live.discard(self)
        _count("disconnects")

    def data_received(self, data: bytes) -> None:
        buffer = memoryview(self._tail + data if self._tail else data)
        # Read once for every request of this read event.
        registry, tracer = active_registry(), active_tracer()
        offset = 0
        try:
            while True:
                frame = decode_frame(buffer[offset:])
                if frame is None:
                    break
                offset += frame[1]
                self._on_request(decode_request(frame[0]), registry, tracer)
        except ProtocolError:
            self._protocol_error()
            return
        self._tail = bytes(buffer[offset:])

    def eof_received(self) -> bool:
        if self._tail:  # the peer hung up mid-frame
            self._protocol_error()
        return False  # the transport closes itself

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop reading its requests.
        if self._transport is not None:
            self._transport.pause_reading()

    def resume_writing(self) -> None:
        if self._transport is not None:
            self._transport.resume_reading()

    def abort(self) -> None:
        if self._transport is not None:
            self._transport.abort()

    def _protocol_error(self) -> None:
        """Count it and close: garbage is never resynchronised."""
        self._server.protocol_errors += 1
        _count("protocol_errors")
        self._tail = b""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def _write_replies(self) -> None:
        frames, self._replies = self._replies, []
        if self._transport is not None:
            self._transport.write(b"".join(frames))

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _on_request(
        self, request: Request, registry: Any, tracer: Optional[Tracer]
    ) -> None:
        """Answer one request now, or admit it and hand it on as one
        coalescer :data:`~repro.net.coalescer.Entry` that :meth:`_complete`
        answers: ``(payload, span, done, req_id, op, started, admitted,
        registry, tracer)``.  ``started`` is the request's arrival on
        ``monotonic()``, the event loop's clock; ``admitted`` is the tenant
        whose inflight slot it holds (None for STATS or with admission
        off); ``registry``/``tracer`` are what its read event found."""
        req_id, op, tenant, key, value, count, trace = request
        server = self._server
        started = monotonic()
        server.requests += 1
        if registry is not None:
            registry.counter(_COUNTERS["requests"]).inc()
        # Continue the client's trace: a sampled context opens a detached
        # server span (the per-thread stack is useless here — many
        # requests interleave on this one loop thread).
        span: Optional[Span] = None
        if tracer is not None and trace is not None and trace.sampled:
            span = tracer.start_remote(
                _SERVER_SPAN,
                trace_id=trace.trace_id,
                remote_parent_id=trace.parent_span_id,
                op=OP_NAMES.get(op, f"0x{op:02x}"),
                tenant=tenant,
            )
        if op == OP_PING:
            server.responses += 1
            self._reply(Response(req_id, STATUS_OK), op, span, tracer, started)
            if registry is not None:
                self._observe(registry, monotonic() - started)
            return
        router: Optional[ShardRouter] = None
        admitted: Optional[str] = None  # the tenant whose inflight slot it holds
        if op != OP_STATS:
            # STATS is tenant-less introspection and bypasses admission on
            # purpose: an operator can still see the arbiter while tenants shed.
            route = server.directory.routes.get(tenant)
            if route is None:
                _count("unknown_tenant")
                response = Response(
                    req_id, STATUS_UNKNOWN_TENANT, message=f"unknown tenant {tenant!r}"
                )
                self._reply(response, op, span, tracer, started)
                return
            router, key_type = route
            # A key the tenant's family cannot order is this request's
            # fault alone: refused here, it never joins a coalesced batch
            # that the index would fail as a whole.
            if not isinstance(key, key_type):
                message = (
                    f"tenant {tenant!r} orders {key_type.__name__} keys, "
                    f"got {type(key).__name__}"
                )
                response = Response(req_id, STATUS_BAD_REQUEST, message=message)
                self._reply(response, op, span, tracer, started)
                return
            if server.admission:
                cost = max(1.0, count * _SCAN_OP_WEIGHT) if op == OP_SCAN else 1.0
                decision = server.directory.arbiter.admit(tenant, ops=cost, now=started)
                if span is not None and tracer is not None:
                    tracer.child_event(_ADMISSION_EVENT, span, decision=decision, cost=cost)
                if decision != ADMIT_OK:
                    server.sheds += 1
                    throttled = decision == SHED_THROTTLED
                    _count("shed_throttled" if throttled else "shed_overloaded")
                    status = STATUS_THROTTLED if throttled else STATUS_OVERLOADED
                    response = Response(req_id, status, message=decision)
                    self._reply(response, op, span, tracer, started)
                    return
                admitted = tenant
        payload = (key, value) if op == OP_PUT else key
        entry = (payload, span, self._complete, req_id, op, started, admitted, registry, tracer)
        coalescer = server.coalescer
        try:
            if op == OP_STATS:
                coalescer.run_single(None, server._stats_payload, entry, writes=False)
                return
            assert router is not None
            if op == OP_GET:
                coalescer.get(router, entry)
            elif op == OP_PUT:
                coalescer.put(router, entry)
            elif op == OP_DELETE:
                coalescer.run_single(router, partial(router.delete, key), entry, writes=True)
            else:
                call = partial(router.scan, key, count)
                coalescer.run_single(router, call, entry, writes=False)
        except Exception as error:  # noqa: BLE001 - one response per failure
            self._complete(entry, None, error)

    def _complete(self, entry: Entry, result: Any, error: Optional[BaseException]) -> None:
        """One response per dispatched request, whatever the dispatch did."""
        _, span, _, req_id, op, started, admitted, registry, tracer = entry
        server = self._server
        if admitted is not None:
            arbiter = server.directory.arbiter
            arbiter.release(admitted)
            if registry is not None:
                registry.gauge(_GAUGES["inflight"]).set(
                    sum(arbiter.inflight(t) for t in arbiter.tenants())
                )
        if error is not None:
            _count("server_errors")
            message = f"{type(error).__name__}: {error}"
            response = Response(req_id, STATUS_SERVER_ERROR, message=message)
        elif op == OP_GET:
            response = _new_tuple(
                Response, (req_id, STATUS_OK, result, result is not None, False, None, "", b"")
            )
        elif op == OP_DELETE:
            response = Response(req_id, STATUS_OK, removed=bool(result))
        elif op == OP_SCAN:
            response = Response(req_id, STATUS_OK, pairs=list(result))
        elif op == OP_STATS:
            response = Response(req_id, STATUS_OK, payload=result)
        else:  # a PUT's ack
            response = _new_tuple(
                Response, (req_id, STATUS_OK, None, False, False, None, "", b"")
            )
        server.responses += 1
        service_elapsed = None
        if registry is not None and op != OP_STATS:
            service_elapsed = monotonic() - started
        # ``_reply``'s body, inline: this is every dispatched request's path.
        if self._transport is not None:
            if not self._replies:
                self._loop.call_soon(self._write_replies)
            self._replies.append(encode_frame(encode_response(response, op)))
        if span is not None and tracer is not None:
            tracer.finish(span, status=response.status, elapsed_s=monotonic() - started)
        if registry is not None:
            self._observe(registry, monotonic() - started, service_elapsed)

    def _reply(
        self,
        response: Response,
        op: int,
        span: Optional[Span],
        tracer: Optional[Tracer],
        started: float,
    ) -> None:
        """Queue ``response`` for this pass's one write; close its span."""
        if self._transport is not None:
            if not self._replies:
                self._loop.call_soon(self._write_replies)
            self._replies.append(encode_frame(encode_response(response, op)))
        if span is not None and tracer is not None:
            tracer.finish(span, status=response.status, elapsed_s=monotonic() - started)

    def _observe(
        self,
        registry: Any,
        elapsed: float,
        service_elapsed: Optional[float] = None,
    ) -> None:
        registry.counter(_COUNTERS["responses"]).inc()
        registry.histogram(_LATENCY_HISTOGRAM, LATENCY_BUCKETS).record(elapsed)
        if service_elapsed is not None:
            registry.histogram(_SERVICE_HISTOGRAM, LATENCY_BUCKETS).record(
                service_elapsed
            )
