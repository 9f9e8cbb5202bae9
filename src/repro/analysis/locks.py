"""Shared lock classification for the concurrency rules.

RA001 (service lock discipline), RA005 (async purity), and RA006 (the
derived lock-order graph) all need to answer the same questions: *is
this ``with`` context expression a lock, which lock is it*, and *which
locks are lexically held at this point of the function?*  The answers
live here once.

A lock *kind* is the attribute name that acquires it (``write_gate``,
``op_lock``, ``_guard``, ``_ops_lock``, ...).  The service's named
kinds are listed explicitly; anything else ending in ``_lock`` or
``_gate`` is classified generically, which is how replica, WAL, and
connection locks added by later PRs enter the RA006 graph without a
registry edit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.project import attribute_chain

#: The service's documented lock hierarchy, outermost (0) to innermost
#: (3).  RA006 seeds its derived graph with edges along this order;
#: RA001's blocking-under-lock check treats exactly these as "service
#: locks".  The order itself is enforced by RA006, not by these ranks.
SERVICE_LOCK_RANKS: Dict[str, int] = {
    "_admin_lock": 0,
    "write_gate": 1,
    "op_lock": 2,
    "_guard": 2,
    "_ops_lock": 3,
}

#: Generic suffixes that classify an attribute as a lock even when it
#: is not one of the named service kinds.
_GENERIC_SUFFIXES: Tuple[str, ...] = ("_lock", "_gate")


@dataclass(frozen=True)
class LockUse:
    """One lock acquisition site: the lock kind and rendered receiver."""

    kind: str
    receiver: str


def classify_lock(expr: ast.expr) -> Optional[LockUse]:
    """Classify a ``with`` context expression as a lock acquisition.

    Handles ``self.write_gate``, ``shard.op_lock``, ``shard._guard()``,
    ``replica.wal._lock`` and the generic ``*_lock``/``*_gate`` shapes;
    returns ``None`` for non-lock context managers (``closing(...)``,
    ``suppress(...)``, file objects, ...).
    """
    target = expr
    if isinstance(target, ast.Call):
        target = target.func
    chain = attribute_chain(target)
    if chain is None or len(chain) < 2:
        return None
    kind = chain[-1]
    if kind not in SERVICE_LOCK_RANKS and not kind.endswith(_GENERIC_SUFFIXES):
        return None
    return LockUse(kind=kind, receiver=".".join(chain[:-1]))


def is_service_lock(use: LockUse) -> bool:
    """True when ``use`` is one of the named service-hierarchy locks."""
    return use.kind in SERVICE_LOCK_RANKS


#: One acquisition site: the ``with`` item's context expression and its lock.
Acquisition = Tuple[ast.expr, LockUse]


def with_locks(node: ast.With | ast.AsyncWith) -> List[Acquisition]:
    """The lock acquisitions among a ``with`` statement's items, in order."""
    found: List[Acquisition] = []
    for item in node.items:
        lock = classify_lock(item.context_expr)
        if lock is not None:
            found.append((item.context_expr, lock))
    return found


_Step = Tuple[ast.AST, Sequence[LockUse], Sequence[Acquisition]]


def walk_held(function: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[_Step]:
    """Walk ``function`` lexically, tracking the locks held at each node.

    Yields ``(node, held, acquired)`` in source order: ``held`` is every
    lock an enclosing ``with`` holds at ``node`` (outermost first; a live
    view, valid until the next step), and ``acquired`` is
    :func:`with_locks` of ``node`` when it is a ``with`` statement —
    those locks are held for its body and released after it.  ``with``
    item expressions themselves are not walked, and nested ``def``s are
    cut off: they run later, under their caller's locks.
    """
    held: List[LockUse] = []

    def walk(node: ast.AST) -> Iterator[_Step]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = with_locks(node)
            yield node, held, acquired
            held.extend(lock for _, lock in acquired)
            for statement in node.body:
                yield from walk(statement)
            for _ in acquired:
                held.pop()
            return
        yield node, held, ()
        for child in ast.iter_child_nodes(node):
            yield from walk(child)

    for statement in function.body:
        yield from walk(statement)
