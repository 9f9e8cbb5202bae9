"""Per-layer tracing from outside: timing wrappers around public callables.

A :class:`Recorder` wraps functions and methods so that each call leaves
one span ``(name, start, end, cpu, parent)`` in a per-thread list; nothing
is aggregated or written until the run is over.

Two clocks are read at each span boundary: the wall clock and the calling
thread's CPU clock.  The service runs index work on pool threads under
one interpreter lock, so a span's wall time includes every moment another
thread held the lock — summed over concurrent spans it counts the same
instant several times.  CPU time cannot: it is **busy** time, and it is
additive across threads.  For every span

* ``self busy = cpu - cpu of its children on the same thread``
* ``self wait = (wall - cpu) - (wall - cpu) of its children on the same thread``

A child on *another* thread (router -> shard through the executor) spends
its own thread's CPU, so nothing is subtracted for it; its parent link is
kept only to say who caused it.  Summed over all spans, self busy is the
CPU spent inside instrumented code, which is what lets a server report
``cpu per op = sum of layer self times + residual``.

Each wrapper costs about a microsecond, part inside the span it opens
and part inside its parent.  :meth:`Recorder.calibrate` measures both
parts on a no-op and :func:`aggregate` moves them out of the layers into
one ``trace.overhead`` row.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

SpanId = Tuple[int, int]  # (thread number, index in that thread's list)

OVERHEAD = "trace.overhead"


@dataclass(frozen=True)
class Span:
    """One completed call."""

    name: str
    start: float
    end: float
    cpu: float
    parent: Optional[SpanId]
    units: int = 1  # work done as a count (keys in a batch, records in an append)

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class LayerTotal:
    """Sums over every span of one name."""

    count: int = 0
    units: int = 0
    wall: float = 0.0
    busy: float = 0.0  # self CPU seconds
    wait: float = 0.0  # self off-CPU seconds


class _ThreadState:
    __slots__ = ("number", "spans", "top")

    def __init__(self, number: int) -> None:
        self.number = number
        self.spans: List[Optional[tuple]] = []
        self.top: Optional[SpanId] = None


class Recorder:
    """Collects spans from wrapped callables on any number of threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        self.inner_overhead = 0.0  # seconds of a wrapper counted inside its span
        self.outer_overhead = 0.0  # seconds of a wrapper counted in its parent

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def wrap(
        self, fn: Callable[..., Any], name: str, sized_by: Optional[int] = None
    ) -> Callable[..., Any]:
        """``fn`` with a span of ``name`` around every call.

        With ``sized_by``, the span's ``units`` is the length of that
        positional argument (a batch of keys, a list of records).
        """
        get_state = self._state
        wall, cpu = time.perf_counter, time.thread_time

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            spans = state.spans
            index = len(spans)
            spans.append(None)
            parent = state.top
            state.top = (state.number, index)
            wall0 = wall()
            cpu0 = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu1 = cpu()
                wall1 = wall()
                state.top = parent
                units = 1 if sized_by is None else len(args[sized_by])
                spans[index] = (name, wall0, wall1, cpu1 - cpu0, parent, units)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(
        self, owner: Any, attribute: str, name: str, sized_by: Optional[int] = None
    ) -> None:
        """Replace ``owner.attribute`` by its wrapped self until :meth:`unpatch`."""
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))
        setattr(owner, attribute, self.wrap(original, name, sized_by))

    def patch_all(self, table: Dict[Tuple[Any, str], Tuple[str, Optional[int]]]) -> None:
        """:meth:`patch` every ``{(owner, attribute): (name, sized_by)}`` entry."""
        for (owner, attribute), (name, sized_by) in table.items():
            self.patch(owner, attribute, name, sized_by)

    def patch_executor(self) -> None:
        """Carry the submitting thread's open span into pool threads.

        ``ThreadPoolExecutor.submit`` is the one public seam between the
        router and its per-shard work; without this a shard span would
        not know which router call caused it.
        """
        recorder = self
        original = ThreadPoolExecutor.submit

        def submit(pool: ThreadPoolExecutor, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
            parent = recorder._state().top
            if parent is None:
                return original(pool, fn, *args, **kwargs)

            def adopted(*inner_args: Any, **inner_kwargs: Any) -> Any:
                with recorder.adopt(parent):
                    return fn(*inner_args, **inner_kwargs)

            return original(pool, adopted, *args, **kwargs)

        self._patched.append((ThreadPoolExecutor, "submit", original))
        ThreadPoolExecutor.submit = submit  # type: ignore[method-assign]

    @contextmanager
    def adopt(self, parent: SpanId) -> Iterator[None]:
        """Make ``parent`` (a span of another thread) the cause of spans here."""
        state = self._state()
        previous = state.top
        state.top = parent
        try:
            yield
        finally:
            state.top = previous

    def unpatch(self) -> None:
        """Undo every :meth:`patch` (newest first)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def calibrate(self, calls: int = 20_000) -> None:
        """Measure what one wrapper adds inside its span and to its parent."""

        def noop() -> None:
            return None

        scratch = Recorder()
        child = scratch.wrap(noop, "child")

        def many_wrapped() -> None:
            for _ in range(calls):
                child()

        def many_bare() -> None:
            for _ in range(calls):
                noop()

        scratch.wrap(many_bare, "bare")()
        scratch.wrap(many_wrapped, "wrapped")()
        totals = aggregate(scratch.spans())
        self.inner_overhead = totals["child"].busy / calls
        self.outer_overhead = max(
            0.0, (totals["wrapped"].busy - totals["bare"].busy) / calls
        )

    # -- reading back --------------------------------------------------
    def spans(self) -> Dict[SpanId, Span]:
        """Every completed span so far, by id."""
        found: Dict[SpanId, Span] = {}
        for state in list(self._states):
            for index, record in enumerate(list(state.spans)):
                if record is not None:
                    found[(state.number, index)] = Span(*record)
        return found


_MISSING = object()


def self_times(spans: Dict[SpanId, Span]) -> Dict[SpanId, Tuple[float, float]]:
    """``{id: (self busy, self wait)}`` — each span minus its same-thread children."""
    child_busy: Dict[SpanId, float] = {}
    child_idle: Dict[SpanId, float] = {}
    for (thread, _), span in spans.items():
        parent = span.parent
        if parent is not None and parent[0] == thread and parent in spans:
            child_busy[parent] = child_busy.get(parent, 0.0) + span.cpu
            child_idle[parent] = child_idle.get(parent, 0.0) + (span.wall - span.cpu)
    return {
        span_id: (
            span.cpu - child_busy.get(span_id, 0.0),
            (span.wall - span.cpu) - child_idle.get(span_id, 0.0),
        )
        for span_id, span in spans.items()
    }


def aggregate(
    spans: Dict[SpanId, Span],
    since: float = float("-inf"),
    until: float = float("inf"),
    inner_overhead: float = 0.0,
    outer_overhead: float = 0.0,
) -> Dict[str, LayerTotal]:
    """Per-name totals of the spans that started in ``[since, until)``.

    With the two overheads from :meth:`Recorder.calibrate`, each span gives
    up ``inner_overhead`` and each parent ``outer_overhead`` per same-thread
    child; what they give up is totalled under :data:`OVERHEAD`, so the sum
    of ``busy`` over all names is unchanged.
    """
    totals: Dict[str, LayerTotal] = {}
    removed = 0.0
    children: Dict[SpanId, int] = {}
    for (thread, _), span in spans.items():
        parent = span.parent
        if parent is not None and parent[0] == thread:
            children[parent] = children.get(parent, 0) + 1
    for span_id, (busy, wait) in self_times(spans).items():
        span = spans[span_id]
        if not since <= span.start < until:
            continue
        cut = min(busy, inner_overhead + outer_overhead * children.get(span_id, 0))
        removed += cut
        total = totals.setdefault(span.name, LayerTotal())
        total.count += 1
        total.units += span.units
        total.wall += span.wall
        total.busy += busy - cut
        total.wait += wait
    if removed:
        totals[OVERHEAD] = LayerTotal(count=0, busy=removed)
    return totals


def child_counts(spans: Dict[SpanId, Span], parent_name: str) -> Tuple[int, int]:
    """``(spans named parent_name, spans any thread whose parent is one)``."""
    parents = {span_id for span_id, span in spans.items() if span.name == parent_name}
    caused = sum(1 for span in spans.values() if span.parent in parents)
    return len(parents), caused
