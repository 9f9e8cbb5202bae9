"""RA005 — async purity: the event loop never blocks.

``repro.net`` runs one asyncio loop per process; every coroutine the
server, client, or load generator schedules shares it.  One blocking
call — a ``time.sleep``, a file read, an ``fsync``, a threading-lock
wait, a ``Future.result()``, or a direct (un-executored) ``ShardRouter``
operation — stalls *every* connection at once, which is how an index
build or WAL append on the accept path turns into a cluster-wide tail
spike.

The rule mirrors RA002's transitive shape: roots are the module- and
class-level ``async def`` coroutines of the registered ``repro.net``
modules, reachability follows the project call graph (so a sync helper
called inline from a coroutine is checked too), and transitive findings
name their async root (``(async via repro.net.server.NetServer
._serve_request)``).  Two deliberate blind spots match the runtime:

* nested **sync** ``def``s are skipped — closures handed to
  ``run_in_executor`` run off-loop by construction;
* nested **async** ``def``s are walked — a coroutine defined inside a
  coroutine (``fire``, ``worker``) still runs on the loop;
* *awaited* calls are exempt — ``await lock.acquire()`` or
  ``await loop.run_in_executor(...)`` yield instead of blocking.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.locks import with_locks
from repro.analysis.project import FunctionInfo, Project, attribute_chain, in_scope

#: Module prefixes whose coroutines root the reachability walk.
DEFAULT_ASYNC_ROOT_MODULES: Tuple[str, ...] = ("repro.net",)

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
    {"TenantDirectory", "ShardRouter", "ReplicatedShard", "DurableLog", "WriteAheadLog"}
)


@register
class AsyncPurityRule(Rule):
    """RA005: no blocking calls reachable from ``repro.net`` coroutines."""

    id = "RA005"
    title = "async purity"
    rationale = (
        "One blocking call on the event loop stalls every in-flight "
        "connection; index and WAL work reaches the loop only through "
        "run_in_executor (docs/networking.md)."
    )

    def __init__(
        self, root_modules: Sequence[str] = DEFAULT_ASYNC_ROOT_MODULES
    ) -> None:
        self._root_modules = tuple(root_modules)

    def async_roots(self, project: Project) -> List[str]:
        """Qualnames of every indexed coroutine in the root modules."""
        return sorted(
            info.qualname
            for info in project.functions.values()
            if isinstance(info.node, ast.AsyncFunctionDef)
            and in_scope(info.module_name, self._root_modules)
        )

    def run(self, project: Project) -> Iterator[Finding]:
        reached = project.reachable_from(self.async_roots(project))
        for qualname in sorted(reached):
            info = project.functions[qualname]
            yield from self._check_function(project, info, reached[qualname])

    # -- one function ----------------------------------------------------
    def _check_function(
        self, project: Project, info: FunctionInfo, root: str
    ) -> Iterator[Finding]:
        origin = f" (async via {root})" if root != info.qualname else ""
        imports = project.imports[info.module_name]

        def emit(node: ast.AST, label: str) -> Finding:
            return self.finding(
                info.module,
                node,
                f"{label} in coroutine-reachable {info.local_name}{origin}; "
                "the event loop must never block — hand the work to the "
                "executor",
                symbol=info.qualname,
            )

        def walk(node: ast.AST) -> Iterator[Finding]:
            if isinstance(node, ast.FunctionDef) and node is not info.node:
                return  # sync closure: runs on the executor, off-loop
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
