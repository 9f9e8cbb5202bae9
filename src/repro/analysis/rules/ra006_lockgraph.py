"""RA006 — derived lock-order graph.

RA001 used to enforce a hand-written lock rank.  That worked for the
four named service locks but said nothing about the locks later PRs
added (replica ``_lock``s, WAL locks, connection write locks), and a
hand-maintained rank is exactly the kind of invariant that rots.  This
rule *derives* the order instead:

* every function in ``service``/``replication``/``durability``/``net``
  is walked lexically; acquiring lock kind B while holding kind A
  records a directed edge ``A -> B`` with its witness site
  (``path:line`` in function);
* the graph is seeded with the documented service hierarchy
  (``_admin_lock -> write_gate -> op_lock/_guard -> leaf locks``,
  ``docs/service.md``) so a single inverted site still contradicts the
  written-down order even when no second code path witnesses it;
* any cycle is reported with **every edge's witness path** — for the
  classic two-function deadlock (f nests A then B, g nests B then A)
  the finding names both sites, which is exactly the PR-4/PR-5
  ``merge_shards`` bug shape.

Same-kind nesting (two shard ``write_gate``s in a merge) is not an
edge: ordering *within* a kind is by shard id and is the business of
RA001's gated-write checks, not the graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.loader import ParsedModule
from repro.analysis.locks import SERVICE_LOCK_RANKS, walk_held
from repro.analysis.project import FunctionInfo, Project, in_scope

DEFAULT_SCOPE: Tuple[str, ...] = (
    "repro.service",
    "repro.replication",
    "repro.durability",
    "repro.net",
)

#: The documented hierarchy, seeded as consecutive-rank edges.
DOCUMENTED_WITNESS = "documented service hierarchy (docs/service.md)"


def _documented_edges() -> List[Tuple[str, str]]:
    by_rank: Dict[int, List[str]] = {}
    for kind, rank in SERVICE_LOCK_RANKS.items():
        by_rank.setdefault(rank, []).append(kind)
    edges: List[Tuple[str, str]] = []
    ranks = sorted(by_rank)
    for outer_rank, inner_rank in zip(ranks, ranks[1:]):
        for outer in sorted(by_rank[outer_rank]):
            for inner in sorted(by_rank[inner_rank]):
                edges.append((outer, inner))
    return edges


@dataclass
class _Edge:
    """One ``held -> acquired`` ordering, with its witness sites."""

    witnesses: List[str] = field(default_factory=list)
    site: Optional[Tuple[ParsedModule, ast.expr, str]] = None

    @property
    def observed(self) -> bool:
        return self.site is not None


@register
class LockOrderGraphRule(Rule):
    """RA006: no cycles in the observed+documented lock-order graph."""

    id = "RA006"
    title = "derived lock-order graph"
    rationale = (
        "Two code paths that nest the same locks in opposite orders are a "
        "deadlock in waiting; deriving the order from observed sites keeps "
        "every lock added since PR 4 inside the checked hierarchy."
    )

    def __init__(self, modules: Sequence[str] = DEFAULT_SCOPE) -> None:
        self._scope = tuple(modules)

    # -- graph construction ---------------------------------------------
    def build_graph(self, project: Project) -> Dict[Tuple[str, str], _Edge]:
        graph: Dict[Tuple[str, str], _Edge] = {}
        for outer, inner in _documented_edges():
            graph.setdefault((outer, inner), _Edge()).witnesses.append(
                DOCUMENTED_WITNESS
            )
        for info in sorted(project.functions.values(), key=lambda i: i.qualname):
            if not in_scope(info.module_name, self._scope):
                continue
            self._record_function(graph, info)
        return graph

    def _record_function(
        self, graph: Dict[Tuple[str, str], _Edge], info: FunctionInfo
    ) -> None:
        for _, held, acquired in walk_held(info.node):
            # Items of one `with` are acquired left to right: each is
            # ordered after the enclosing locks and its earlier siblings.
            holders = list(held)
            for expr, lock in acquired:
                for holder in holders:
                    if holder.kind == lock.kind:
                        continue
                    witness = (
                        f"{info.module.path.as_posix()}:"
                        f"{expr.lineno} in {info.qualname} "
                        f"({holder.receiver}.{holder.kind} then "
                        f"{lock.receiver}.{lock.kind})"
                    )
                    edge = graph.setdefault((holder.kind, lock.kind), _Edge())
                    edge.witnesses.append(witness)
                    if edge.site is None:
                        edge.site = (info.module, expr, info.qualname)
                holders.append(lock)

    # -- cycle detection -------------------------------------------------
    def run(self, project: Project) -> Iterator[Finding]:
        graph = self.build_graph(project)
        successors: Dict[str, List[str]] = {}
        for a, b in graph:
            successors.setdefault(a, []).append(b)
        reported: Set[frozenset[Tuple[str, str]]] = set()
        for (a, b), edge in sorted(graph.items()):
            if not edge.observed:
                continue
            path = self._shortest_path(successors, b, a)
            if path is None:
                continue
            cycle_edges = [(a, b)] + list(zip(path, path[1:]))
            key = frozenset(cycle_edges)
            if key in reported:
                continue
            reported.add(key)
            yield self._cycle_finding(graph, cycle_edges)

    @staticmethod
    def _shortest_path(
        successors: Dict[str, List[str]], start: str, goal: str
    ) -> Optional[List[str]]:
        """BFS path ``start -> ... -> goal`` through the edge set."""
        queue: List[List[str]] = [[start]]
        seen = {start}
        while queue:
            path = queue.pop(0)
            if path[-1] == goal:
                return path
            for nxt in sorted(successors.get(path[-1], [])):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(path + [nxt])
        return None

    @staticmethod
    def _witness(edge: _Edge) -> str:
        """Prefer an observed code site over the documented-order witness."""
        for witness in edge.witnesses:
            if witness != DOCUMENTED_WITNESS:
                return witness
        return edge.witnesses[0]

    def _cycle_finding(
        self,
        graph: Dict[Tuple[str, str], _Edge],
        cycle_edges: List[Tuple[str, str]],
    ) -> Finding:
        # Anchor at the lexically-first observed site in the cycle.
        observed = [
            site
            for site in (graph[e].site for e in cycle_edges)
            if site is not None
        ]
        module, node, qualname = min(
            observed, key=lambda site: (site[0].path.as_posix(), site[1].lineno)
        )
        legs = "; ".join(
            f"{a} -> {b} [{self._witness(graph[(a, b)])}]" for a, b in cycle_edges
        )
        kinds = " -> ".join([cycle_edges[0][0]] + [b for _, b in cycle_edges])
        return self.finding(
            module,
            node,
            f"lock-order cycle {kinds}: {legs}; two paths acquire these "
            "locks in opposite orders, which can deadlock — pick one order "
            "and document it",
            symbol=qualname,
        )
