"""Server-side request coalescing into the batch paths.

GET/PUT requests for the same tenant are merged into one
:meth:`ShardRouter.get_many` / :meth:`ShardRouter.put_many` call — the
PR-2 batch paths were built for exactly this.  There is no timer: the
first entry into an empty queue schedules one ``loop.call_soon`` flush,
so a batch is *what the loop read in one pass, across all connections*,
cut FIFO into chunks of at most ``max_batch`` (``max_batch=1`` is
per-request dispatch, the bench's baseline mode).  An idle server adds
one loop iteration to a request, a busy one batches whatever arrived.

Where a flush runs depends on what it does, never on a size: only a
write to a router with a WAL (``router.durable``) can wait on an
``fsync``, so exactly those calls go to the executor and the loop never
parks behind a disk.  Everything else — every GET and SCAN, and writes
without a WAL — is bounded pure-Python index work that another thread
could only run under the same interpreter lock, so it runs right here
on the loop thread.  A read never waits on a writer's ``fsync``: a
shard copy's lock is held for the index work alone, and the WAL append
and ``fsync`` happen outside it (``repro.service.shard``).  A durable
PUT queue keeps **at most one flush in flight**: entries that arrive
meanwhile go out together when it returns — group commit sized by the
``fsync``.  SCAN/DELETE follow the same rule one call at a time.

Each queued request carries a completion callback ``done(result,
error)``; a failed flush fails exactly its own batch, never silently
drops a request, and the queue keeps serving.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import SIZE_BUCKETS
from repro.obs.runtime import active_registry, active_tracer
from repro.obs.tracing import Span
from repro.service.router import ShardRouter
from repro.service.shard import Pair
from repro.service.partition import Key

#: RA004: literal instrument names for the coalescing path.  A "timer"
#: flush is one whose window closed (the loop went idle) before the batch
#: filled; the names predate the timer's removal and are kept stable.
_COUNTERS = {
    "batches": "net.coalesce.batches",
    "requests": "net.coalesce.requests",
    "timer_flushes": "net.coalesce.timer_flushes",
    "size_flushes": "net.coalesce.size_flushes",
}
_BATCH_SIZE_HISTOGRAM = "net.coalesce.batch_size"
#: RA004: span-name literal for one flushed batch.
_BATCH_SPAN = "net.coalesce.batch"

_GET = "get"
_PUT = "put"

#: How a request learns its outcome: ``done(result, None)`` or
#: ``done(None, error)``, always on the loop thread.
Completion = Callable[[Any, Optional[BaseException]], None]

#: One queued request: payload, its completion, and (when the request is
#: part of a sampled distributed trace) the server span to link/nest under.
_Entry = Tuple[Any, Completion, Optional[Span]]


class _Queue:
    """Pending entries for one (router, kind); ``active`` while a flush is
    scheduled, running or in flight — whoever holds it drains new entries."""

    __slots__ = ("router", "kind", "entries", "active")

    def __init__(self, router: ShardRouter, kind: str) -> None:
        self.router = router
        self.kind = kind
        self.entries: List[_Entry] = []
        self.active = False


class Coalescer:
    """Merges in-flight requests into per-tenant router batches."""

    def __init__(
        self, max_batch: int = 128, executor: Optional[ThreadPoolExecutor] = None
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self._executor = executor
        self._owns_executor = executor is None
        self._queues: Dict[Tuple[int, str], _Queue] = {}
        self.batches_flushed = 0
        self.requests_coalesced = 0

    @property
    def enabled(self) -> bool:
        """False when configured down to per-request dispatch."""
        return self.max_batch > 1

    @property
    def max_delay(self) -> float:
        """Timer share of a request's wait: none, the window is one loop pass.

        Kept (read-only) only because ``benchmarks/e2e/server_main.py``
        reads it for the coalescing window it reports.
        """
        return 0.0

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="repro-net"
            )
        return self._executor

    def close(self) -> None:
        """Fail what is still queued; shut the owned executor down."""
        for queue in self._queues.values():
            entries, queue.entries = queue.entries, []
            for _, done, _ in entries:
                done(None, ConnectionAbortedError("server stopped"))
        self._queues.clear()
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    # ------------------------------------------------------------------
    # Enqueue (event-loop side)
    # ------------------------------------------------------------------
    def get(
        self,
        router: ShardRouter,
        key: Key,
        done: Completion,
        span: Optional[Span] = None,
    ) -> None:
        """Queue one GET against ``router``; completes with the value/None."""
        self._enqueue(router, _GET, key, done, span)

    def put(
        self,
        router: ShardRouter,
        pair: Pair,
        done: Completion,
        span: Optional[Span] = None,
    ) -> None:
        """Queue one PUT against ``router``; completes with None on ack."""
        self._enqueue(router, _PUT, pair, done, span)

    def run_single(
        self,
        router: Optional[ShardRouter],
        call: Callable[[], Any],
        done: Completion,
        span: Optional[Span] = None,
        *,
        writes: bool,
    ) -> None:
        """Run one uncoalesced call (scan; delete, which ``writes``; stats
        with no router).

        When the request carries a sampled trace, ``span`` (the server
        span) is adopted on the running thread so the router/shard/index
        spans the call emits nest under it.
        """
        tracer = active_tracer()
        if span is not None and tracer is not None:
            call = tracer.adopting(span, call)
        self._run(router, call, done, writes)

    def _enqueue(
        self,
        router: ShardRouter,
        kind: str,
        payload: Any,
        done: Completion,
        span: Optional[Span],
    ) -> None:
        queue = self._queues.get((id(router), kind))
        if queue is None:
            queue = self._queues[(id(router), kind)] = _Queue(router, kind)
        queue.entries.append((payload, done, span))
        if not queue.active:
            # The window: everything else the loop reads in this pass joins.
            queue.active = True
            asyncio.get_running_loop().call_soon(self._flush, queue)

    # ------------------------------------------------------------------
    # Flush (event-loop side; the executor only behind a WAL)
    # ------------------------------------------------------------------
    def _flush(self, queue: _Queue) -> None:
        """Drain ``queue`` FIFO in ``max_batch`` chunks, one in flight at most."""
        while queue.entries:
            entries = queue.entries[: self.max_batch]
            del queue.entries[: self.max_batch]
            in_flight = self._flush_entries(queue, entries)
            if in_flight is not None:
                # On the executor: its completion resumes the drain, taking
                # whatever arrived while it ran.
                in_flight.add_done_callback(lambda _: self._flush(queue))
                return
        queue.active = False

    def _flush_entries(
        self, queue: _Queue, entries: List[_Entry]
    ) -> "Optional[asyncio.Future[None]]":
        loop = asyncio.get_running_loop()
        router, kind = queue.router, queue.kind
        timer = len(entries) < self.max_batch
        self.batches_flushed += 1
        self.requests_coalesced += len(entries)
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["batches"]).inc()
            registry.counter(_COUNTERS["requests"]).inc(len(entries))
            if timer:
                registry.counter(_COUNTERS["timer_flushes"]).inc()
            else:
                registry.counter(_COUNTERS["size_flushes"]).inc()
            registry.histogram(_BATCH_SIZE_HISTOGRAM, SIZE_BUCKETS).record(len(entries))
        payloads = [payload for payload, _, _ in entries]
        batch: Callable[[Any], Any] = router.get_many if kind == _GET else router.put_many
        call: Callable[[], Any] = partial(batch, payloads)

        # One batch span per flush, parented under the *first* traced
        # request's server span; the other coalesced requests are linked
        # by span id so the stitch tool can attribute the shared work to
        # every trace that rode the batch.
        tracer = active_tracer()
        batch_span: Optional[Span] = None
        if tracer is not None:
            spans = [span for _, _, span in entries if span is not None]
            if spans:
                batch_span = tracer.start_child(
                    _BATCH_SPAN,
                    spans[0],
                    kind=kind,
                    size=len(entries),
                    timer_flush=timer,
                )
                if len(spans) > 1:
                    batch_span.set(
                        link_span_ids=[s.span_id for s in spans[1:]],
                        link_trace_ids=[s.trace_id for s in spans[1:]],
                    )
                call = tracer.adopting(batch_span, call)
        started = loop.time()

        def resolve(values: Any, error: Optional[BaseException]) -> None:
            if batch_span is not None and tracer is not None:
                tracer.finish(batch_span, elapsed_s=loop.time() - started)
            if error is not None or kind == _PUT:
                values = repeat(None)
            for (_, done, _), value in zip(entries, values):
                done(value, error)

        return self._run(router, call, resolve, writes=kind == _PUT)

    def _run(
        self,
        router: Optional[ShardRouter],
        call: Callable[[], Any],
        done: Completion,
        writes: bool,
    ) -> "Optional[asyncio.Future[None]]":
        """Run ``call`` where it cannot park the loop; ``done`` gets the outcome.

        On the executor (returns the future in flight) when ``call``
        ``writes`` to a router with a WAL, or has no router (stats);
        else inline (returns None, ``done`` already called).
        """
        outcome: List[Any] = [None, RuntimeError("call did not run")]

        def work() -> None:
            try:
                outcome[:] = call(), None
            except Exception as error:  # noqa: BLE001 - delivered to ``done``
                outcome[1] = error

        if router is not None and (not writes or not router.durable):
            # repro: ignore[RA005] -- a read, or a write with no WAL: no fsync and no lock held across one; ≤ max_batch keys ≈ 0.9 ms, docs/networking.md
            work()
            done(*outcome)
            return None
        in_flight = asyncio.get_running_loop().run_in_executor(self._pool(), work)
        in_flight.add_done_callback(lambda _: done(*outcome))
        return in_flight
