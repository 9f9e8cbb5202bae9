"""RA001 — service lock discipline.

``repro.service`` has exactly one sanctioned locking protocol, written
down in ``docs/service.md``; two of its rules are checked here
lexically:

1. **No blocking while holding a lock** — submitting to or waiting on
   an executor (``submit``/``wait``/``result``/``shutdown``/``sleep``)
   under any service lock stalls every writer behind the holder.
2. **Snapshot reads** — code that routes (indexes ``.shards[...]`` or
   calls ``.partitioner.shard_of``) must do so on a *captured* routing
   table (``table = self._table``), never inline on ``self._table``:
   two inline reads can interleave with a concurrent split/merge swap
   and tear the snapshot.

Lock *order* is RA006's (a graph derived from observed nesting sites).
A gated writer's route revalidation is checked by the wire oracle
(``tests/integration/test_wire_oracle.py``) and a per-site test: without
it a write lands in a shard a split/merge just retired.
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

DEFAULT_SCOPE: Tuple[str, ...] = ("repro.service", "repro.service.*")


@register
class LockDisciplineRule(Rule):
    """RA001: the ``repro.service`` locking protocol, checked lexically."""

    id = "RA001"
    title = "service lock discipline"
    rationale = (
        "No blocking under a service lock (it stalls every writer behind the "
        "holder) and routing only through a captured table snapshot (two "
        "inline reads can straddle a split/merge swap)."
    )

    def __init__(self, modules: Sequence[str] = DEFAULT_SCOPE) -> None:
        self._scope = tuple(modules)

    def run(self, project: Project) -> Iterator[Finding]:
        for info in project.functions.values():
            if not in_scope(info.module_name, self._scope):
                continue
            yield from self._check_function(info)
            yield from self._check_snapshot_reads(info)

    # -- check 1: a lexical walk tracking held locks ---------------------
    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        for node, held, _acquired in walk_held(info.node):
            if isinstance(node, ast.Call):
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
