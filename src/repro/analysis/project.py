"""The whole-program view: function index, imports, and the call graph.

The call graph is deliberately *lightweight and under-approximate*: it
resolves the call shapes that appear in this codebase's disciplines —

* ``name(...)`` — a function defined in (or imported into) the module,
* ``self.method(...)`` / ``cls.method(...)`` — a method of the
  enclosing class,
* ``alias.func(...)`` / ``alias.sub.func(...)`` — a function of an
  imported project module,

and ignores dynamic dispatch through object attributes
(``self.index.lookup(...)`` stays unresolved).  Rules that care about
paths crossing such boundaries compensate by *registering* the far side
explicitly — that is exactly what the hot-root registry in
:mod:`repro.analysis.hotpaths` is for.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.loader import ParsedModule


@dataclass(frozen=True)
class FunctionInfo:
    """One module-level function or class method."""

    qualname: str
    local_name: str
    name: str
    class_name: Optional[str]
    module_name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: ParsedModule = field(repr=False, compare=False, hash=False)


@dataclass(frozen=True)
class ImportMap:
    """Name bindings introduced by a module's import statements."""

    modules: Dict[str, str]
    symbols: Dict[str, str]


def attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """The bare name ``call`` targets: ``f`` for ``f(...)`` and ``a.b.f(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def in_scope(module_name: str, patterns: Iterable[str]) -> bool:
    """True when a pattern names ``module_name`` or a package containing it.

    Patterns are ``fnmatch`` globs over the dotted name, and each also
    covers the submodules of what it names: ``repro.service`` matches
    ``repro.service`` and ``repro.service.router`` (but not
    ``repro.service_extra``); ``*`` matches everything.
    """
    return any(
        fnmatchcase(module_name, pattern) or fnmatchcase(module_name, pattern + ".*")
        for pattern in patterns
    )


def _import_map(tree: ast.Module) -> ImportMap:
    modules: Dict[str, str] = {}
    symbols: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    modules[alias.asname] = alias.name
                else:
                    # `import a.b` binds `a`; chains resolve through it.
                    modules[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                symbols[bound] = f"{node.module}.{alias.name}"
    return ImportMap(modules=modules, symbols=symbols)


class Project:
    """Every parsed module plus the indexes the rules share."""

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        self.modules: List[ParsedModule] = list(modules)
        self.by_name: Dict[str, ParsedModule] = {m.name: m for m in self.modules}
        self.functions: Dict[str, FunctionInfo] = {}
        self.imports: Dict[str, ImportMap] = {}
        for module in self.modules:
            self.imports[module.name] = _import_map(module.tree)
            self._index_functions(module)
        self._callees: Dict[str, Set[str]] = {}

    # -- indexing --------------------------------------------------------
    def _index_functions(self, module: ParsedModule) -> None:
        def visit(nodes: Iterable[ast.stmt], class_name: Optional[str]) -> None:
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local = f"{class_name}.{node.name}" if class_name else node.name
                    info = FunctionInfo(
                        qualname=f"{module.name}.{local}",
                        local_name=local,
                        name=node.name,
                        class_name=class_name,
                        module_name=module.name,
                        node=node,
                        module=module,
                    )
                    self.functions.setdefault(info.qualname, info)
                elif isinstance(node, ast.ClassDef) and class_name is None:
                    visit(node.body, node.name)

        visit(module.tree.body, None)

    # -- call resolution -------------------------------------------------
    def resolve_call(self, caller: FunctionInfo, call: ast.Call) -> Optional[str]:
        """The qualname of the project function ``call`` targets, if known."""
        imports = self.imports[caller.module_name]
        func = call.func
        if isinstance(func, ast.Name):
            local = f"{caller.module_name}.{func.id}"
            if local in self.functions:
                return local
            target = imports.symbols.get(func.id)
            if target is not None and target in self.functions:
                return target
            return None
        chain = attribute_chain(func)
        if chain is None or len(chain) < 2:
            return None
        root, rest = chain[0], chain[1:]
        if root in ("self", "cls") and caller.class_name is not None and len(rest) == 1:
            method = f"{caller.module_name}.{caller.class_name}.{rest[0]}"
            return method if method in self.functions else None
        base = imports.modules.get(root)
        if base is not None:
            dotted = ".".join([base, *rest]) if base != root else ".".join(chain)
            if dotted in self.functions:
                return dotted
        symbol = imports.symbols.get(root)
        if symbol is not None:
            dotted = ".".join([symbol, *rest])
            if dotted in self.functions:
                return dotted
        return None

    def callees(self, qualname: str) -> Set[str]:
        """Project functions called (lexically) from ``qualname``."""
        cached = self._callees.get(qualname)
        if cached is not None:
            return cached
        info = self.functions[qualname]
        found: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                target = self.resolve_call(info, node)
                if target is not None and target != qualname:
                    found.add(target)
        self._callees[qualname] = found
        return found

    def reachable_from(self, roots: Iterable[str]) -> Dict[str, str]:
        """BFS over the call graph; maps reached qualname -> its root."""
        origin: Dict[str, str] = {}
        queue: deque[Tuple[str, str]] = deque()
        for root in roots:
            if root in self.functions and root not in origin:
                origin[root] = root
                queue.append((root, root))
        while queue:
            current, root = queue.popleft()
            for callee in self.callees(current):
                if callee not in origin:
                    origin[callee] = root
                    queue.append((callee, root))
        return origin
