"""Structured tracing: nestable spans over a pluggable sink.

Spans model the paper's decision trail end-to-end::

    lookup -> descent -> leaf_probe:succinct
    adaptation_phase -> classify -> migration:gapped->succinct

and, since the network front end exists, the request trail across
processes::

    net.client.request -> net.server.request -> net.coalesce.batch
        -> service.route -> service.shard_op -> lookup -> ...

Design constraints, in priority order:

* **No wall-clock in the hot path.**  Spans are ordered by a logical
  sequence counter (``seq_start``/``seq_end``); durations, when they
  matter, are modeled costs carried as attributes.  (Network-layer
  spans, which are nowhere near the index hot path, additionally carry
  measured ``elapsed_s`` attributes.)
* **Zero cost when disabled.**  Nothing here runs unless a tracer is
  installed (see :mod:`repro.obs.runtime`); instrumented call sites pay
  one global read and one ``is None`` branch.
* **Bounded cost when enabled.**  Per-operation spans go through
  :meth:`Tracer.op_start`, which applies its own skip-sampling gate
  (``op_sample_every``) — the same idea the paper uses for access
  sampling.  Phase-level spans (:meth:`Tracer.span`) are always emitted;
  they fire at most once per adaptation phase / merge / interval.

Span parenting uses a per-thread stack, so the concurrency experiments
can trace without corrupting the tree.  Code that multiplexes many
logical operations over one thread (the asyncio server) must NOT use the
stack: it uses the detached lifecycle instead — :meth:`Tracer.start_remote`
/ :meth:`Tracer.start_child` / :meth:`Tracer.child_event` /
:meth:`Tracer.finish` — which parents spans explicitly and never reads
thread-local state.  :meth:`Tracer.adopt` bridges the two worlds: it
pushes a detached span onto the *current* thread's stack (e.g. inside an
executor task) so stack-based instrumentation below nests under it.

Completed spans are emitted to the sink as flat record dicts (children
before parents, post-order), which is what the JSONL schema in
``docs/trace_schema.json`` describes.  Spans belonging to a distributed
trace additionally carry a ``trace_id``; purely local spans omit the
field, keeping pre-existing traces byte-identical.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Protocol, TypeVar

_T = TypeVar("_T")


class TraceSink(Protocol):
    """Receives completed span records."""

    def emit(self, record: Dict) -> None:
        """Accept one completed span (a JSON-safe dict)."""

    def close(self) -> None:
        """Flush and release resources."""


class Span:
    """One open span; becomes a record dict when finished."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "seq_start",
        "seq_end",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        seq_start: int,
        attributes: Optional[Dict] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.seq_start = seq_start
        self.seq_end: Optional[int] = None
        self.attributes = attributes or {}

    def set(self, **attributes: object) -> None:
        """Attach attributes to the open span."""
        self.attributes.update(attributes)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []


class Tracer:
    """Emits nested spans to one sink.

    ``op_sample_every = 0`` disables per-operation spans entirely (the
    default: phase-level visibility at near-zero cost); ``1`` traces
    every operation; ``n`` traces every n-th.

    ``span_id_base`` offsets the sequential span-id counter; give each
    process of a distributed run a distinct base (e.g. ``1 << 32`` per
    process) so span ids never collide when client and server JSONL
    files are stitched together.
    """

    def __init__(
        self,
        sink: TraceSink,
        op_sample_every: int = 0,
        span_id_base: int = 0,
    ) -> None:
        if op_sample_every < 0:
            raise ValueError(f"op_sample_every must be >= 0, got {op_sample_every}")
        if span_id_base < 0:
            raise ValueError(f"span_id_base must be >= 0, got {span_id_base}")
        self.sink = sink
        self.op_sample_every = op_sample_every
        self._op_countdown = 0
        self._seq = 0
        self._next_span_id = span_id_base + 1
        self._lock = threading.Lock()
        self._emit_lock = threading.Lock()
        self._state = _ThreadState()
        self.spans_emitted = 0
        self.ops_skipped = 0

    # -- internals -------------------------------------------------------
    def _tick(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            return span_id

    # -- span lifecycle (stack-based) ------------------------------------
    def start(self, name: str, **attributes: object) -> Span:
        """Open a span as a child of the current innermost span."""
        stack = self._state.stack
        parent = stack[-1] if stack else None
        span = Span(
            name,
            self._new_id(),
            parent.span_id if parent is not None else None,
            self._tick(),
            attributes,
            trace_id=parent.trace_id if parent is not None else None,
        )
        stack.append(span)
        return span

    def end(self, span: Span, **attributes: object) -> None:
        """Close ``span`` (and any forgotten children) and emit it."""
        if attributes:
            span.attributes.update(attributes)
        stack = self._state.stack
        while stack:
            top = stack.pop()
            if top is span:
                break
            self._emit(top)  # abandoned child: close it at the same tick
        span.seq_end = self._tick()
        self._emit(span)

    def op_start(self, name: str, **attributes: object) -> Optional[Span]:
        """Per-operation span gate; None when sampled out or disabled."""
        every = self.op_sample_every
        if every == 0:
            return None
        if self._op_countdown > 0:
            self._op_countdown -= 1
            self.ops_skipped += 1
            return None
        self._op_countdown = every - 1
        return self.start(name, **attributes)

    def event(self, name: str, **attributes: object) -> None:
        """An instantaneous span (seq_start == seq_end) under the current one."""
        stack = self._state.stack
        parent = stack[-1] if stack else None
        span = Span(
            name,
            self._new_id(),
            parent.span_id if parent is not None else None,
            self._tick(),
            attributes,
            trace_id=parent.trace_id if parent is not None else None,
        )
        span.seq_end = span.seq_start
        self._emit(span)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Context-managed span for phase-level code paths."""
        span = self.start(name, **attributes)
        try:
            yield span
        finally:
            self.end(span)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread's stack, if any."""
        stack = self._state.stack
        return stack[-1] if stack else None

    # -- span lifecycle (detached; explicit parenting) -------------------
    #
    # The asyncio server interleaves many requests on one thread, so the
    # per-thread stack would misparent their spans.  Detached spans are
    # parented explicitly, never touch the stack, and are closed with
    # ``finish`` (never ``end``).

    def start_remote(
        self,
        name: str,
        trace_id: int,
        remote_parent_id: Optional[int] = None,
        **attributes: object,
    ) -> Span:
        """Open a detached span continuing a trace from another process.

        The span is a local root (``parent_id is None``) so each JSONL
        file stays self-contained for schema validation; the causal link
        to the originating process is carried as a ``remote_parent_id``
        attribute, which the stitch tool resolves across files.
        """
        if remote_parent_id is not None:
            attributes = dict(attributes)
            attributes["remote_parent_id"] = remote_parent_id
        return Span(name, self._new_id(), None, self._tick(), attributes, trace_id=trace_id)

    def start_child(self, name: str, parent: Span, **attributes: object) -> Span:
        """Open a detached span as an explicit child of ``parent``."""
        return Span(
            name,
            self._new_id(),
            parent.span_id,
            self._tick(),
            attributes,
            trace_id=parent.trace_id,
        )

    def child_event(self, name: str, parent: Span, **attributes: object) -> None:
        """An instantaneous span under an explicit ``parent``."""
        span = Span(
            name,
            self._new_id(),
            parent.span_id,
            self._tick(),
            attributes,
            trace_id=parent.trace_id,
        )
        span.seq_end = span.seq_start
        self._emit(span)

    def finish(self, span: Span, **attributes: object) -> None:
        """Close and emit a detached span (does not touch any stack)."""
        if attributes:
            span.attributes.update(attributes)
        span.seq_end = self._tick()
        self._emit(span)

    @contextmanager
    def adopt(self, span: Span) -> Iterator[Span]:
        """Make a detached ``span`` the stack parent on *this* thread.

        Used to carry a request's span across an executor hop: stack-based
        instrumentation (router, shards, index hot paths) run inside the
        ``with`` block nests under it.  The adopted span itself is NOT
        emitted on exit — its owner still calls :meth:`finish`.  Spans
        left open inside the block are closed and emitted, mirroring
        :meth:`end`'s forgotten-children discipline.
        """
        stack = self._state.stack
        stack.append(span)
        try:
            yield span
        finally:
            while stack:
                top = stack.pop()
                if top is span:
                    break
                self._emit(top)

    def adopting(self, span: Span, call: Callable[[], _T]) -> Callable[[], _T]:
        """``call`` wrapped to run under :meth:`adopt` of ``span`` on
        whichever thread runs it (the executor side of a hop)."""

        def run() -> _T:
            with self.adopt(span):
                return call()

        return run

    def _emit(self, span: Span) -> None:
        if span.seq_end is None:
            span.seq_end = span.seq_start
        record: Dict = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "seq_start": span.seq_start,
            "seq_end": span.seq_end,
            "attributes": span.attributes,
        }
        if span.trace_id is not None:
            record["trace_id"] = span.trace_id
        with self._emit_lock:
            self.spans_emitted += 1
            self.sink.emit(record)

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Close any still-open spans on this thread, then the sink."""
        stack = self._state.stack
        while stack:
            self.end(stack[-1])
        self.sink.close()
