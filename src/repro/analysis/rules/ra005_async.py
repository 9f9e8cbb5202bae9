"""RA005 — async purity: the event loop never blocks.

``repro.net`` runs one asyncio loop per process; every coroutine and
callback the server, client, or load generator schedules shares it.  One
blocking call — a ``time.sleep``, a file read, an ``fsync``, a
threading-lock wait, a ``Future.result()``, or a direct ``ShardRouter``
operation — stalls *every* connection at once, which is how an index
build or WAL append on the accept path turns into a cluster-wide tail
spike.

The rule mirrors RA002's transitive shape.  Roots are everything in the
registered ``repro.net`` modules that the loop itself calls: the
``async def`` coroutines, every method of an ``asyncio.Protocol`` /
``BufferedProtocol`` subclass (the server's request path is plain calls
under ``data_received``), and every function handed to ``call_soon`` /
``call_later`` / ``add_done_callback``.  Reachability follows the project
call graph (so a sync helper called inline is checked too), and
transitive findings name their root (``(on the loop via
repro.net.server._Connection.data_received)``).  The blind spots match
the runtime:

* a nested sync ``def`` is skipped only when the enclosing function
  hands it to ``run_in_executor`` / ``submit`` — it runs off-loop by
  construction — and calling that same closure *inline* is a finding:
  work declared blocking by being sent to the executor, run on the loop
  (the coalescer's one sanctioned site carries the suppression);
* every other nested ``def``, sync or async, is walked with its parent;
* *awaited* calls are exempt — ``await lock.acquire()`` or
  ``await loop.run_in_executor(...)`` yield instead of blocking.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.locks import with_locks
from repro.analysis.project import (
    FunctionInfo,
    Project,
    attribute_chain,
    call_name,
    in_scope,
)

#: Module prefixes whose coroutines root the reachability walk.
DEFAULT_ASYNC_ROOT_MODULES: Tuple[str, ...] = ("repro.net",)

#: Loop methods that schedule a callback, and the callback's argument position.
SCHEDULERS = {
    "call_soon": 0,
    "call_soon_threadsafe": 0,
    "add_done_callback": 0,
    "call_later": 1,
    "call_at": 1,
}

#: Methods that move a callable off the loop, and its argument position.
EXECUTOR_HANDOFFS = {"run_in_executor": 1, "submit": 0}

#: Base classes whose methods the loop calls directly.
PROTOCOL_BASES = frozenset({"asyncio.Protocol", "asyncio.BufferedProtocol"})

#: Blocking file-object / path methods (sync I/O on the loop).
FILE_IO_ATTRS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes", "fsync", "fdatasync"}
)

#: ShardRouter operations that must be routed through the executor.
ROUTER_METHODS = frozenset(
    {
        "get",
        "get_many",
        "put",
        "put_many",
        "delete",
        "scan",
        "checkpoint",
        "recover",
        "split_shard",
        "merge_shards",
        "stats",
    }
)

#: Constructors whose synchronous build the call graph cannot see into
#: (dynamic dispatch) but which do index builds, WAL opens, and fsyncs.
#: Registered explicitly, like the RA002 hot roots.
HEAVY_BUILDERS = frozenset(
    {"TenantDirectory", "ShardRouter", "DurableLog", "WriteAheadLog"}
)


def _dotted(
    node: ast.expr, module_aliases: Dict[str, str], symbol_aliases: Dict[str, str]
) -> str:
    """``node`` as the dotted name its imports give it (``asyncio.Protocol``)."""
    chain = attribute_chain(node) or [""]
    head = symbol_aliases.get(chain[0]) or module_aliases.get(chain[0], chain[0])
    return ".".join([head, *chain[1:]])


def _handed_to(function: ast.AST, methods: Dict[str, int]) -> Iterator[ast.expr]:
    """The callable argument of every ``methods`` call inside ``function``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            position = methods.get(call_name(node) or "")
            if position is not None and len(node.args) > position:
                yield node.args[position]


@register
class AsyncPurityRule(Rule):
    """RA005: no blocking calls reachable from what the ``repro.net`` loop runs."""

    id = "RA005"
    title = "async purity"
    rationale = (
        "One blocking call on the event loop stalls every in-flight "
        "connection; nothing that can wait (WAL, op_lock, file I/O) runs on "
        "the loop thread (docs/networking.md)."
    )

    def __init__(
        self, root_modules: Sequence[str] = DEFAULT_ASYNC_ROOT_MODULES
    ) -> None:
        self._root_modules = tuple(root_modules)

    def async_roots(self, project: Project) -> List[str]:
        """Qualnames of everything in the root modules the loop calls itself."""
        roots: Set[str] = set()
        for module in project.modules:
            if not in_scope(module.name, self._root_modules):
                continue
            imports = project.imports[module.name]
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) and any(
                    _dotted(base, imports.modules, imports.symbols) in PROTOCOL_BASES
                    for base in node.bases
                ):
                    roots.update(
                        f"{module.name}.{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    )
        for info in project.functions.values():
            if not in_scope(info.module_name, self._root_modules):
                continue
            if isinstance(info.node, ast.AsyncFunctionDef):
                roots.add(info.qualname)
            for callback in _handed_to(info.node, SCHEDULERS):
                # A lambda's body runs on the loop: root what it calls.
                targets = (
                    [n for n in ast.walk(callback) if isinstance(n, ast.Call)]
                    if isinstance(callback, ast.Lambda)
                    else [ast.Call(func=callback, args=[], keywords=[])]
                )
                for target in targets:
                    resolved = project.resolve_call(info, target)
                    if resolved is not None:
                        roots.add(resolved)
        return sorted(roots)

    def run(self, project: Project) -> Iterator[Finding]:
        reached = project.reachable_from(self.async_roots(project))
        for qualname in sorted(reached):
            info = project.functions[qualname]
            yield from self._check_function(project, info, reached[qualname])

    # -- one function ----------------------------------------------------
    def _check_function(
        self, project: Project, info: FunctionInfo, root: str
    ) -> Iterator[Finding]:
        origin = f" (on the loop via {root})" if root != info.qualname else ""
        imports = project.imports[info.module_name]
        offloaded = {
            handed.id
            for handed in _handed_to(info.node, EXECUTOR_HANDOFFS)
            if isinstance(handed, ast.Name)
        }

        def emit(node: ast.AST, label: str) -> Finding:
            return self.finding(
                info.module,
                node,
                f"{label} in loop-reachable {info.local_name}{origin}; "
                "the event loop must never block — hand the work to the "
                "executor",
                symbol=info.qualname,
            )

        def walk(node: ast.AST) -> Iterator[Finding]:
            if isinstance(node, ast.FunctionDef) and node.name in offloaded:
                return  # handed to the executor: runs off-loop
            if isinstance(node, ast.Await):
                # The awaited call yields; still check its arguments.
                value = node.value
                children = value.args + value.keywords if isinstance(
                    value, ast.Call
                ) else [value]
                for child in children:
                    yield from walk(child)
                return
            if isinstance(node, ast.With):
                for expr, lock in with_locks(node):
                    yield emit(
                        expr,
                        f"sync `with {lock.receiver}.{lock.kind}` (thread-lock wait)",
                    )
            if isinstance(node, ast.Call):
                label = self._blocking_label(imports.modules, imports.symbols, node)
                if isinstance(node.func, ast.Name) and node.func.id in offloaded:
                    label = (
                        f"inline call of {node.func.id}(), which this function "
                        "also hands to the executor as blocking work"
                    )
                if label is not None:
                    yield emit(node, label)
            for child in ast.iter_child_nodes(node):
                yield from walk(child)

        yield from walk(info.node)

    def _blocking_label(
        self,
        module_aliases: Dict[str, str],
        symbol_aliases: Dict[str, str],
        call: ast.Call,
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "blocking open()"
            if symbol_aliases.get(func.id) == "time.sleep":
                return "blocking time.sleep()"
            if func.id in HEAVY_BUILDERS:
                return (
                    f"synchronous {func.id}() build (index/WAL construction "
                    "runs under the constructor)"
                )
            return None
        chain = attribute_chain(func)
        if chain is None or len(chain) < 2:
            return None
        receiver, attr = chain[:-1], chain[-1]
        root_module = module_aliases.get(chain[0], "")
        if attr == "sleep" and root_module == "time":
            return "blocking time.sleep()"
        if attr in ("fsync", "fdatasync") and root_module == "os":
            return f"blocking os.{attr}()"
        if attr in FILE_IO_ATTRS:
            return f"blocking file I/O {'.'.join(chain)}()"
        if attr == "open" and root_module != "":
            return f"blocking {'.'.join(chain)}()"
        if attr == "acquire":
            return f"blocking {'.'.join(chain)}() (lock wait)"
        if attr == "result":
            return f"blocking {'.'.join(chain)}() (Future.result)"
        if attr in ROUTER_METHODS and "router" in receiver[-1].lower():
            return (
                f"direct ShardRouter call {'.'.join(chain)}() "
                "not routed through the executor"
            )
        return None
