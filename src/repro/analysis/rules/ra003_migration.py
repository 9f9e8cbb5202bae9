"""RA003 — build-aside + swap migration discipline.

Every structural migration since PR 1 (leaf re-encode, trie
expand/compact, dual-stage merge, service split/merge) follows one
shape: read the live structure, **build the replacement off to the
side**, and publish it with a single swap — with ``fault_point(...)``
injection sites threaded through so the fault tests can prove that
a failure anywhere before the swap changes nothing.

This rule finds migration functions *by that marker*: any function
calling ``fault_point`` with a label ending in ``.swap`` is treated as
a build-aside migration, and inside it:

* no statement **before the swap point** may mutate state reachable
  from ``self`` or a parameter (assignments, augmented assignments, or
  mutating method calls like ``append``/``update``/``set_child``) —
  published structures must stay untouched until the swap.  Monotonic
  instrumentation is exempt: chains through a ``counters`` attribute
  are never rollback state;
* every ``fault_point`` label must be a string literal (the fault
  tests enumerate sites by grepping literals);
* no ``fault_point`` may appear **after the publish** (the first
  ``self``/parameter assignment following the swap point) — past the
  publish there is nothing left to roll back, so a fault site there is
  outside the build-aside region by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.project import FunctionInfo, Project, attribute_chain, call_name, node_position

MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "add",
        "discard",
        "sort",
        "setdefault",
        "set_child",
    }
)

#: Attribute chains through these names are instrumentation, not state.
INSTRUMENTATION_SEGMENTS = frozenset({"counters"})

def _fault_label(call: ast.Call) -> Optional[ast.expr]:
    """The label argument when ``call`` is a ``fault_point(...)`` call."""
    if call_name(call) != "fault_point" or not call.args:
        return None
    return call.args[0]


def _chain_root(node: ast.AST) -> Optional[List[str]]:
    """The name chain of an assignment target / call receiver."""
    current = node
    while isinstance(current, ast.Subscript):
        current = current.value
    return attribute_chain(current)


@register
class MigrationDisciplineRule(Rule):
    """RA003: published state stays untouched until the swap point."""

    id = "RA003"
    title = "migration discipline"
    rationale = (
        "A migration that mutates the published structure before its swap "
        "point cannot be rolled back by the fault injector; the zero-lost-keys "
        "guarantee of docs/robustness.md rests on build-aside purity."
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for info in project.functions.values():
            yield from self._check_function(info)

    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        faults: List[Tuple[ast.Call, Optional[str]]] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                label = _fault_label(node)
                if label is not None:
                    literal = label.value if (
                        isinstance(label, ast.Constant) and isinstance(label.value, str)
                    ) else None
                    if literal is None:
                        yield self.finding(
                            info.module,
                            node,
                            "fault_point label must be a string literal (fault "
                            "tests enumerate sites lexically)",
                            symbol=info.qualname,
                        )
                    faults.append((node, literal))
        swap_calls = [call for call, label in faults if label and label.endswith(".swap")]
        if not swap_calls:
            return
        swap_at = min(node_position(call) for call in swap_calls)
        params = self._parameter_names(info)
        publish_at = self._publish_position(info, swap_at, params)
        for node in ast.walk(info.node):
            position = node_position(node)
            if position < swap_at:
                yield from self._check_mutation(info, node, params)
            elif (
                publish_at is not None
                and position > publish_at
                and isinstance(node, ast.Call)
                and _fault_label(node) is not None
            ):
                yield self.finding(
                    info.module,
                    node,
                    "fault_point after the publish assignment is outside the "
                    "build-aside region; nothing can roll back past the swap",
                    symbol=info.qualname,
                )

    @staticmethod
    def _parameter_names(info: FunctionInfo) -> Set[str]:
        args = info.node.args
        names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        names.discard("self")
        names.discard("cls")
        return names

    def _published_chain(self, node: ast.AST, params: Set[str]) -> Optional[List[str]]:
        chain = _chain_root(node)
        if chain is None or len(chain) < 2:
            return None
        if chain[0] != "self" and chain[0] not in params:
            return None
        if any(segment in INSTRUMENTATION_SEGMENTS for segment in chain):
            return None
        return chain

    def _check_mutation(
        self, info: FunctionInfo, node: ast.AST, params: Set[str]
    ) -> Iterator[Finding]:
        targets: Sequence[ast.expr] = ()
        verb = ""
        if isinstance(node, ast.Assign):
            targets, verb = node.targets, "assignment to"
        elif isinstance(node, (ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, ast.Delete) else [node.target]
            verb = "mutation of"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                chain = self._published_chain(node.func.value, params)
                if chain is not None:
                    yield self.finding(
                        info.module,
                        node,
                        f"in-place {node.func.attr}() on published "
                        f"{'.'.join(chain)} before the swap point; build the "
                        "replacement aside and publish it with the swap",
                        symbol=info.qualname,
                    )
            return
        for target in targets:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            chain = self._published_chain(target, params)
            if chain is not None:
                yield self.finding(
                    info.module,
                    node,
                    f"{verb} published {'.'.join(chain)} before the swap point; "
                    "published structures must stay untouched until the swap",
                    symbol=info.qualname,
                )

    def _publish_position(
        self, info: FunctionInfo, swap_at: Tuple[int, int], params: Set[str]
    ) -> Optional[Tuple[int, int]]:
        publishes: List[Tuple[int, int]] = []
        for node in ast.walk(info.node):
            if node_position(node) <= swap_at:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and self._published_chain(target, params) is not None:
                        publishes.append(node_position(node))
        return min(publishes) if publishes else None
