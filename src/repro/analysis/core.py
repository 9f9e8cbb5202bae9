"""Findings, the rule base class, and the rule registry.

A rule is a whole-project pass: it receives the :class:`~repro.analysis
.project.Project` (every parsed module plus the call graph) and yields
:class:`Finding` values.  Rules self-register via :func:`register`, so
adding a checker is: subclass :class:`Rule`, decorate it, import the
module from :mod:`repro.analysis.rules`.

Suppressions are applied after every rule has run — rules stay ignorant
of the comment syntax, and the reporters can show how many findings a
tree suppresses.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple, Type

if TYPE_CHECKING:
    from repro.analysis.loader import ParsedModule
    from repro.analysis.project import Project


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    symbol: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }


class Rule(ABC):
    """Base class for one analysis pass."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    @abstractmethod
    def run(self, project: "Project") -> Iterator[Finding]:
        """Yield every violation found in ``project``."""

    def finding(
        self,
        module: "ParsedModule",
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=module.path.as_posix(),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            symbol=symbol,
        )


RULE_TYPES: Dict[str, Type[Rule]] = {}


def register(rule_type: Type[Rule]) -> Type[Rule]:
    """Class decorator: add ``rule_type`` to the global registry."""
    if not rule_type.id:
        raise ValueError(f"{rule_type.__name__} must define a rule id")
    existing = RULE_TYPES.get(rule_type.id)
    if existing is not None and existing is not rule_type:
        raise ValueError(f"rule id {rule_type.id} already registered by {existing.__name__}")
    RULE_TYPES[rule_type.id] = rule_type
    return rule_type


def all_rule_ids() -> List[str]:
    """Every registered rule id, sorted."""
    _ensure_rules_imported()
    return sorted(RULE_TYPES)


def build_rules(select: Iterable[str] | None = None) -> List[Rule]:
    """Instantiate registered rules (all of them, or just ``select``)."""
    _ensure_rules_imported()
    wanted = sorted(RULE_TYPES) if select is None else list(select)
    rules: List[Rule] = []
    for rule_id in wanted:
        rule_type = RULE_TYPES.get(rule_id)
        if rule_type is None:
            raise KeyError(f"unknown rule id {rule_id!r}; known: {sorted(RULE_TYPES)}")
        rules.append(rule_type())
    return rules


def _ensure_rules_imported() -> None:
    # The built-in rules register themselves on import; importing here
    # keeps `build_rules()` usable without a separate bootstrap call.
    import repro.analysis.rules  # noqa: F401  (import has the side effect)


def run_rules(
    project: "Project", rules: Iterable[Rule]
) -> Tuple[List[Finding], List[Finding]]:
    """Run every rule and split results into (kept, suppressed)."""
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    by_path: Dict[str, "ParsedModule"] = {
        module.path.as_posix(): module for module in project.modules
    }
    for rule in rules:
        for finding in rule.run(project):
            module = by_path.get(finding.path)
            if module is not None and module.is_suppressed(finding.rule, finding.line):
                suppressed.append(finding)
            else:
                kept.append(finding)
    return sorted(kept), sorted(suppressed)
