"""Async network front end: framing, tenancy, coalescing, admission.

The package turns the PR-2 sharded service into a TCP server.  The
wire format (:mod:`repro.net.protocol`) reuses the WAL's length-prefix
+ CRC framing discipline; the server (:mod:`repro.net.server`)
coalesces concurrently in-flight requests into the shard routers'
batch paths (:mod:`repro.net.coalescer`), maps tenants onto dedicated
shard groups (:mod:`repro.net.tenancy`), and sheds overload through
the :class:`~repro.core.budget.ResourceArbiter` as backpressure
responses.  ``python -m repro.net`` serves a demo directory from the
command line; :mod:`repro.net.loadgen` is the open-loop Zipf load
generator (a client only) the tail-latency bench drives it with.
"""

from repro.net.client import (
    BackpressureError,
    ConnectionClosedError,
    NetClient,
    NetError,
    RequestError,
)
from repro.net.coalescer import Coalescer
from repro.net.protocol import (
    BACKPRESSURE_STATUSES,
    MAX_FRAME_BYTES,
    OP_DELETE,
    OP_GET,
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
    decode_response,
    encode_frame,
    encode_request,
    encode_response,
    read_frame,
)
from repro.net.server import NetServer
from repro.net.tenancy import TenantDirectory, TenantSpec, demo_directory

__all__ = [
    "BACKPRESSURE_STATUSES",
    "BackpressureError",
    "Coalescer",
    "ConnectionClosedError",
    "MAX_FRAME_BYTES",
    "NetClient",
    "NetError",
    "NetServer",
    "OP_DELETE",
    "OP_GET",
    "OP_PING",
    "OP_PUT",
    "OP_SCAN",
    "OP_STATS",
    "ProtocolError",
    "Request",
    "RequestError",
    "Response",
    "STATUS_BAD_REQUEST",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_SERVER_ERROR",
    "STATUS_THROTTLED",
    "STATUS_UNKNOWN_TENANT",
    "TenantDirectory",
    "TenantSpec",
    "decode_frame",
    "decode_request",
    "decode_response",
    "demo_directory",
    "encode_frame",
    "encode_request",
    "encode_response",
    "read_frame",
]
