"""RA001 — service lock discipline.

``repro.service`` has exactly one sanctioned locking protocol, written
down in ``docs/service.md`` and enforced here mechanically:

1. **No blocking while holding a lock** — submitting to or waiting on
   an executor (``submit``/``wait``/``result``/``shutdown``/``sleep``)
   under any service lock stalls every writer behind the holder.
2. **Snapshot reads** — code that routes (indexes ``.shards[...]`` or
   calls ``.partitioner.shard_of``) must do so on a *captured* routing
   table (``table = self._table``), never inline on ``self._table``:
   two inline reads can interleave with a concurrent split/merge swap
   and tear the snapshot.
3. **Gated-write revalidation** — a write forwarded to a shard under
   its ``write_gate`` must re-read ``self._table`` inside the gated
   block and confirm the route.  The PR-4 lost-write race happened
   because a writer woke up after a table swap and wrote into an
   orphaned shard; the revalidation block is what closes it, so its
   absence is reported.

The *acquisition-order* check that used to live here moved to RA006,
which derives the lock-order graph from observed nesting sites instead
of a hand-written rank (see
:mod:`repro.analysis.rules.ra006_lockgraph`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Tuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.locks import LockUse, is_service_lock, walk_held
from repro.analysis.project import FunctionInfo, Project, attribute_chain, in_scope

#: Callables that block (or enqueue work) and must not run under a lock.
BLOCKING_ATTRS = frozenset({"submit", "shutdown", "result", "map"})
BLOCKING_NAMES = frozenset({"wait", "sleep"})

#: Shard write methods that require in-gate route revalidation.
SHARD_WRITE_METHODS = frozenset({"put", "put_many", "delete", "insert", "insert_many"})

DEFAULT_SCOPE: Tuple[str, ...] = ("repro.service", "repro.service.*")


def _reads_routing_table(node: ast.AST) -> bool:
    """True when ``node`` contains a ``self._table`` read."""
    for child in ast.walk(node):
        chain = attribute_chain(child)
        if chain is not None and chain[:2] == ["self", "_table"]:
            return True
    return False


@register
class LockDisciplineRule(Rule):
    """RA001: the ``repro.service`` locking protocol, checked lexically."""

    id = "RA001"
    title = "service lock discipline"
    rationale = (
        "Lock order, no blocking under locks, snapshot reads, and gated-write "
        "revalidation are the invariants behind the PR-4 lost-write fix; "
        "eyeball review already missed one of them once."
    )

    def __init__(self, modules: Sequence[str] = DEFAULT_SCOPE) -> None:
        self._scope = tuple(modules)

    def run(self, project: Project) -> Iterator[Finding]:
        for info in project.functions.values():
            if not in_scope(info.module_name, self._scope):
                continue
            yield from self._check_function(info)
            yield from self._check_snapshot_reads(info)

    # -- checks 1 and 3: a lexical walk tracking held locks -------------
    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        for node, held, acquired in walk_held(info.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                yield from self._check_gated_writes(info, node, [lock for _, lock in acquired])
            elif isinstance(node, ast.Call):
                service = [lock for lock in held if is_service_lock(lock)]
                if service:
                    yield from self._check_blocking(info, node, service)

    def _check_blocking(
        self, info: FunctionInfo, call: ast.Call, held: Sequence[LockUse]
    ) -> Iterator[Finding]:
        func = call.func
        name: Optional[str] = None
        if isinstance(func, ast.Attribute):
            if func.attr in BLOCKING_ATTRS | BLOCKING_NAMES:
                name = func.attr
        elif isinstance(func, ast.Name) and func.id in BLOCKING_NAMES:
            name = func.id
        if name is None:
            return
        holder = held[-1]
        yield self.finding(
            info.module,
            call,
            f"blocking call {name}() while holding {holder.kind} of "
            f"{holder.receiver!r}; hand work to the executor before taking "
            "service locks",
            symbol=info.qualname,
        )

    def _check_gated_writes(
        self, info: FunctionInfo, node: ast.With | ast.AsyncWith, acquired: Sequence[LockUse]
    ) -> Iterator[Finding]:
        gates = [lock for lock in acquired if lock.kind == "write_gate" and lock.receiver != "self"]
        if not gates:
            return
        body = ast.Module(body=list(node.body), type_ignores=[])
        revalidates = _reads_routing_table(body)
        for child in ast.walk(body):
            if not isinstance(child, ast.Call):
                continue
            chain = attribute_chain(child.func)
            if chain is None or len(chain) < 2 or chain[-1] not in SHARD_WRITE_METHODS:
                continue
            receiver = ".".join(chain[:-1])
            if receiver not in {gate.receiver for gate in gates}:
                continue
            if not revalidates:
                yield self.finding(
                    info.module,
                    child,
                    f"write {chain[-1]}() on {receiver!r} under its write_gate "
                    "without re-reading self._table inside the gated block; a "
                    "concurrent split/merge may have swapped the table while "
                    "this writer waited (lost-write race)",
                    symbol=info.qualname,
                )

    # -- check 2: snapshot reads ----------------------------------------
    def _check_snapshot_reads(self, info: FunctionInfo) -> Iterator[Finding]:
        for node in ast.walk(info.node):
            if isinstance(node, ast.Subscript):
                chain = attribute_chain(node.value)
                if chain is not None and chain[:2] == ["self", "_table"]:
                    yield self.finding(
                        info.module,
                        node,
                        "indexing into an uncaptured routing-table read "
                        f"({'.'.join(chain)}[...]); capture `table = self._table` "
                        "once and index the snapshot",
                        symbol=info.qualname,
                    )
            elif isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if (
                    chain is not None
                    and chain[:2] == ["self", "_table"]
                    and chain[-1] == "shard_of"
                ):
                    yield self.finding(
                        info.module,
                        node,
                        "routing through an uncaptured table read "
                        f"({'.'.join(chain)}(...)); capture `table = self._table` "
                        "and route through the snapshot",
                        symbol=info.qualname,
                    )
