"""Source discovery, parsing, and suppression-comment extraction.

The analyzer works on plain :mod:`ast` trees; this module turns paths
into :class:`ParsedModule` values that bundle the tree with everything
the rules and reporters need: the dotted module name (derived from the
``repro`` package root when the file lives under one), the raw source
lines, and the parsed ``# repro: ignore[RULE]`` suppressions.

Suppression syntax::

    some_statement()  # repro: ignore[RA002] -- why this is acceptable
    # repro: ignore[RA001, RA004] -- standalone: applies to the next line
    another_statement()

A suppression matches findings on its own line; a *standalone*
suppression (a line holding nothing but the comment) matches the next
line that holds code, skipping blank and comment-only lines so
multi-line justification comments stay legal.  ``ignore[*]`` matches
every rule.  The text after ``--`` is the justification; the CI lint
gate (``--check-suppressions``) fails on suppressions that omit it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore\[(?P<rules>[A-Za-z0-9_*,\s]+)\](?P<just>\s*--\s*\S.*)?"
)


class AnalysisError(RuntimeError):
    """A path could not be loaded or parsed."""


@dataclass(frozen=True)
class Suppression:
    """One ``# repro: ignore[...]`` comment."""

    line: int
    rules: FrozenSet[str]
    justified: bool
    standalone: bool

    def matches(self, rule_id: str) -> bool:
        return "*" in self.rules or rule_id in self.rules


@dataclass
class ParsedModule:
    """One parsed source file plus its analysis metadata."""

    path: Path
    name: str
    tree: ast.Module
    lines: List[str]
    suppressions: List[Suppression] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_line: Dict[int, Set[str]] = {}
        for suppression in self.suppressions:
            target = suppression.line
            if suppression.standalone:
                target = _next_code_line(self.lines, suppression.line)
            self._by_line.setdefault(target, set()).update(suppression.rules)

    def suppression_targets(self) -> Dict[int, Set[str]]:
        """Every suppression's *target* line mapped to its rule ids.

        The target is the line findings must land on for the suppression
        to match — the comment's own line, or for standalone comments
        the next code line.  The stale-suppression check compares these
        against the findings the rules actually produced.
        """
        return {line: set(rules) for line, rules in self._by_line.items()}

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rules = self._by_line.get(line)
        if not rules:
            return False
        return "*" in rules or rule_id in rules


def _next_code_line(lines: Sequence[str], after: int) -> int:
    """The first 1-based line after ``after`` that is not blank or comment.

    Standalone suppressions attach to the statement they precede, so the
    scan skips over the rest of a multi-line justification comment.  A
    suppression at end-of-file degrades to targeting the line below it,
    which simply never matches a finding.
    """
    for number in range(after + 1, len(lines) + 1):
        stripped = lines[number - 1].strip()
        if stripped and not stripped.startswith("#"):
            return number
    return after + 1


def module_name_for(path: Path) -> str:
    """The dotted module name for ``path``.

    Files under a ``repro`` package directory get their real dotted name
    (``src/repro/service/router.py`` -> ``repro.service.router``), which
    is what scoped rules match against; anything else falls back to the
    file stem so fixture files and scratch copies still analyze.
    """
    parts = list(path.resolve().parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[start:]
        if dotted[-1] == "__init__.py":
            dotted = dotted[:-1]
        else:
            dotted[-1] = Path(dotted[-1]).stem
        return ".".join(dotted)
    if path.name == "__init__.py":
        return path.parent.name
    return path.stem


def parse_suppressions(lines: Sequence[str]) -> List[Suppression]:
    """Extract every suppression comment from raw source lines.

    Tokenizes rather than regex-scanning whole lines so that suppression
    syntax quoted inside strings and docstrings (like the examples in
    this module's own docstring) is never treated as live.
    """
    found: List[Suppression] = []
    source = "\n".join(lines) + "\n"
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return found
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        if not rules:
            continue
        number = token.start[0]
        standalone = token.line[: token.start[1]].strip() == ""
        found.append(
            Suppression(
                line=number,
                rules=rules,
                justified=match.group("just") is not None,
                standalone=standalone,
            )
        )
    return found


def load_module(path: Path) -> ParsedModule:
    """Parse one source file into a :class:`ParsedModule`."""
    try:
        source = path.read_text()
    except OSError as error:
        raise AnalysisError(f"{path}: cannot read ({error})") from error
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        raise AnalysisError(f"{path}: syntax error ({error})") from error
    lines = source.splitlines()
    return ParsedModule(
        path=path,
        name=module_name_for(path),
        tree=tree,
        lines=lines,
        suppressions=parse_suppressions(lines),
    )


def discover(paths: Iterable[Path]) -> List[Path]:
    """Expand files and directories into a sorted list of ``*.py`` files."""
    seen: Set[Path] = set()
    ordered: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Tuple[Path, ...] = tuple(sorted(path.rglob("*.py")))
        elif path.is_file():
            candidates = (path,)
        else:
            raise AnalysisError(f"{path}: no such file or directory")
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def load_paths(paths: Iterable[Path]) -> List[ParsedModule]:
    """Discover and parse every module under ``paths``."""
    return [load_module(path) for path in discover(paths)]
