"""``repro.analysis`` — the repo's custom static-analysis suite.

An AST-based framework (loader, whole-program :class:`~repro.analysis
.project.Project` with a lightweight call graph, rule registry,
suppressions, text/JSON reporters) plus six codebase-specific
checkers:

* **RA001** service lock discipline (no blocking under locks, snapshot
  reads),
* **RA002** hot-path purity (no wall-clock/log/print/broad-except
  reachable from the registered hot roots),
* **RA004** telemetry naming hygiene (schema pattern, no f-string
  names),
* **RA005** async purity (no blocking call reachable from a
  ``repro.net`` coroutine),
* **RA006** derived lock-order graph (no cycles, documented hierarchy),
* **RA007** handle lifecycle (acquired handles reach ``close()``).

The ids RA003 and RA008 are retired, not reused: build-aside+swap and
the WAL fence are checked by the wire oracle
(``tests/integration/test_wire_oracle.py``), which sees them through
behaviour rather than source shape.

Run it as ``python -m repro.analysis [paths]``; the rule catalogue and
suppression syntax live in ``docs/static_analysis.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.analysis.core import (
    Finding,
    Rule,
    all_rule_ids,
    build_rules,
    run_rules,
)
from repro.analysis.loader import AnalysisError, ParsedModule, load_paths
from repro.analysis.project import Project

__all__ = [
    "AnalysisError",
    "Finding",
    "ParsedModule",
    "Project",
    "Rule",
    "all_rule_ids",
    "analyze_paths",
    "build_rules",
]


def analyze_paths(
    paths: Iterable[Path | str],
    rules: Optional[Iterable[Rule]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Analyze ``paths`` and return ``(findings, suppressed_findings)``."""
    modules = load_paths([Path(path) for path in paths])
    project = Project(modules)
    rule_list = list(rules) if rules is not None else build_rules()
    return run_rules(project, rule_list)
