"""RA008 — WAL-fence discipline: fence on failure, never ack first.

The PR-6 review established the append invariant this rule now
enforces mechanically.  A WAL append that fails part-way may leave
garbage mid-file; because replay stops at the first bad frame, any
*later* acknowledged append would land after the garbage where replay
cannot reach it — an acked-then-lost write.  So, in every function
that appends to a WAL (``append_batch``/``append_put``/
``append_put_many``/``append_delete``, or a raw ``*handle.write``
inside an ``append*`` function):

* **no ack before the durable append** — applying to the index
  (``self.index.insert/...``) or completing a future
  (``set_result``) lexically before the first append call
  acknowledges a write that is not yet durable;
* **raw handle writes fence on failure** — a raw ``*handle.write``
  must sit under a ``try`` whose handler calls a fence
  (``_poison``/``seal``/``mark_down``) — or, when the write
  itself is failure-path cleanup inside a handler, the fence must
  precede it there.  Re-raising alone is *not* enough: without the
  poison fence the next append acks on top of the garbage;
* **no swallowed append failures** — an ``except`` handler around an
  append call must fence or re-raise; catching and continuing turns a
  failed append into a silent ack.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.project import (
    FunctionInfo,
    Project,
    attribute_chain,
    call_name,
    in_scope,
    node_position,
)

DEFAULT_SCOPE: Tuple[str, ...] = (
    "repro.service",
    "repro.durability",
    "repro.replication",
    "repro.net",
)

#: Calls that durably append to a WAL.
APPEND_METHODS = frozenset({"append_batch", "append_put", "append_put_many", "append_delete"})

#: Calls that acknowledge a write to a caller or apply it to the index.
ACK_INDEX_METHODS = frozenset({"insert", "insert_many", "delete", "remove", "apply"})

#: Methods that fence a failed log/replica off.
FENCE_METHODS = frozenset({"_poison", "seal", "mark_down"})

def _is_append_call(node: ast.Call) -> bool:
    return call_name(node) in APPEND_METHODS


def _is_raw_handle_write(node: ast.Call) -> bool:
    chain = attribute_chain(node.func)
    return (
        chain is not None
        and len(chain) >= 2
        and chain[-1] == "write"
        and "handle" in chain[-2].lower()
    )


def _is_ack_call(node: ast.Call) -> Optional[str]:
    chain = attribute_chain(node.func)
    if chain is None or len(chain) < 2:
        return None
    if chain[-1] == "set_result":
        return f"{'.'.join(chain)}() (completing the caller's future)"
    if chain[-1] in ACK_INDEX_METHODS and any(
        "index" in segment.lower() for segment in chain[:-1]
    ):
        return f"{'.'.join(chain)}() (applying to the live index)"
    return None


def _calls_fence(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and call_name(sub) in FENCE_METHODS:
            return True
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(sub, ast.Raise) for sub in ast.walk(handler))


@register
class WalFenceRule(Rule):
    """RA008: append failures fence; acks never precede durability."""

    id = "RA008"
    title = "WAL-fence discipline"
    rationale = (
        "An append failure that is not fenced lets the next acknowledged "
        "append land beyond unreachable garbage — the acked-then-lost shape "
        "the PR-6 poisoning fence exists to kill (docs/durability.md)."
    )

    def __init__(self, modules: Sequence[str] = DEFAULT_SCOPE) -> None:
        self._scope = tuple(modules)

    def run(self, project: Project) -> Iterator[Finding]:
        for info in sorted(project.functions.values(), key=lambda i: i.qualname):
            if not in_scope(info.module_name, self._scope):
                continue
            yield from self._check_function(info)

    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        appends: List[ast.Call] = []
        raw_writes: List[ast.Call] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                if _is_append_call(node):
                    appends.append(node)
                elif _is_raw_handle_write(node):
                    raw_writes.append(node)
        if "append" in info.name:
            appends = appends + raw_writes
        if not appends:
            return
        first_append = min(node_position(call) for call in appends)
        yield from self._check_ack_order(info, first_append)
        yield from self._check_swallowed_failures(info)
        if "append" in info.name:
            yield from self._check_raw_write_fencing(info, raw_writes)

    # -- check 1: no ack before the durable append -----------------------
    def _check_ack_order(
        self, info: FunctionInfo, first_append: Tuple[int, int]
    ) -> Iterator[Finding]:
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call) or node_position(node) >= first_append:
                continue
            label = _is_ack_call(node)
            if label is not None:
                yield self.finding(
                    info.module,
                    node,
                    f"{label} before the durable WAL append in "
                    f"{info.local_name}; a crash between them acknowledges "
                    "a write the log never saw — append first, then apply",
                    symbol=info.qualname,
                )

    # -- check 2: swallowed append failures ------------------------------
    def _check_swallowed_failures(self, info: FunctionInfo) -> Iterator[Finding]:
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Try):
                continue
            body_appends = any(
                isinstance(sub, ast.Call) and (_is_append_call(sub) or _is_raw_handle_write(sub))
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if not body_appends:
                continue
            for handler in node.handlers:
                if _reraises(handler) or _calls_fence(handler):
                    continue
                yield self.finding(
                    info.module,
                    handler,
                    f"append failure swallowed in {info.local_name}: this "
                    "handler neither fences the log (_poison/seal/"
                    "mark_down) nor re-raises, so the caller acks a write "
                    "that may sit after unreachable garbage",
                    symbol=info.qualname,
                )

    # -- check 3: raw handle writes fence on failure ---------------------
    def _check_raw_write_fencing(
        self, info: FunctionInfo, raw_writes: Sequence[ast.Call]
    ) -> Iterator[Finding]:
        guarded: set[int] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Try):
                fenced = any(_calls_fence(handler) for handler in node.handlers)
                if fenced:
                    for stmt in node.body:
                        for sub in ast.walk(stmt):
                            guarded.add(id(sub))
            elif isinstance(node, ast.ExceptHandler):
                # Failure-path cleanup: a fence call lexically before the
                # write inside the same handler also guards it.
                fences = [
                    sub
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Call) and _calls_fence(sub)
                ]
                if not fences:
                    continue
                fence_at = min(node_position(fence) for fence in fences)
                for stmt in node.body:
                    for sub in ast.walk(stmt):
                        if node_position(sub) >= fence_at:
                            guarded.add(id(sub))
        for write in raw_writes:
            if id(write) not in guarded:
                yield self.finding(
                    info.module,
                    write,
                    f"raw WAL write in {info.local_name} has no fence on its "
                    "failure path; wrap it in a try whose handler poisons "
                    "the log before propagating (re-raising alone leaves "
                    "the next append to ack over garbage)",
                    symbol=info.qualname,
                )
