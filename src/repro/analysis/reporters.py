"""Finding reporters: human text and machine JSON.

The JSON shape (top-level keys, the ``summary`` block, one finding's
fields) is pinned by ``tests/analysis/test_cli.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Sequence

from repro.analysis.core import Finding, Rule

TOOL_NAME = "repro.analysis"
REPORT_VERSION = 1


def render_text(findings: Sequence[Finding], suppressed: int = 0) -> str:
    """One line per finding, ruff/gcc style, plus a summary line."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}"
        + (f" [{f.symbol}]" if f.symbol else "")
        for f in findings
    ]
    by_rule = Counter(f.rule for f in findings)
    if findings:
        counts = ", ".join(f"{rule}: {count}" for rule, count in sorted(by_rule.items()))
        lines.append(f"{len(findings)} finding(s) ({counts}); {suppressed} suppressed")
    else:
        lines.append(f"clean: 0 findings; {suppressed} suppressed")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    rules: Sequence[Rule],
    paths: Sequence[str],
    suppressed: int = 0,
) -> Dict[str, object]:
    """The machine-readable report."""
    by_rule = Counter(f.rule for f in findings)
    return {
        "version": REPORT_VERSION,
        "tool": TOOL_NAME,
        "paths": list(paths),
        "rules": [
            {
                "id": rule.id,
                "title": rule.title,
                "rationale": rule.rationale,
            }
            for rule in rules
        ],
        "findings": [f.as_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "suppressed": suppressed,
            "by_rule": {rule_id: by_rule[rule_id] for rule_id in sorted(by_rule)},
        },
    }
