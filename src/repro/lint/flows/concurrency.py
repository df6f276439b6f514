"""RL103 — pool task functions must not mutate module-level state.

``ProcessPoolBackend`` ships work to forked/spawned workers; any
module-level mutable state a task function touches exists once *per
process*. A mutation made in a worker is invisible to the parent and to
every other worker, and whether two tasks share it depends on the
start method and chunk placement — the classic source of
"works serially, diverges under the pool" bugs.

The rule builds the set of *pool entry* functions — everything passed
to ``submit``/``map``/``imap``/``starmap`` on an executor/pool object —
then walks the project call graph from them and reports every reachable
function that mutates module-level state:

* rebinding through a ``global`` declaration,
* mutating calls (``append``/``update``/``add``/…) on a module-level
  name,
* subscript/attribute stores into a module-level name.

Functions passed as ``initializer=`` to the executor are exempt (with
everything reachable *only* through them): per-worker initialization of
module globals is exactly what the initializer hook is for.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import CallResolver, FunctionInfo, ProjectIndex
from ..engine import ModuleSource
from ..findings import Finding, finding_at

#: Pool/executor methods whose first argument is shipped to workers.
_SUBMIT_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply_async"}
)

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "appendleft",
        "extendleft",
    }
)


def _module_level_names(module: ModuleSource) -> frozenset[str]:
    names: set[str] = set()
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            names.add(stmt.target.id)
    return frozenset(names)


def _local_bindings(func: FunctionInfo) -> frozenset[str]:
    """Names bound locally in a function (sans ``global`` declarations)."""
    node = func.node
    hoisted: set[str] = set()
    bound: set[str] = set()
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for inner in ast.walk(node):
        if isinstance(inner, ast.Global):
            hoisted.update(inner.names)
        elif isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                inner.targets
                if isinstance(inner, ast.Assign)
                else [inner.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(inner, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(inner.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(inner, ast.withitem):
            if isinstance(inner.optional_vars, ast.Name):
                bound.add(inner.optional_vars.id)
        elif isinstance(inner, ast.comprehension):
            for name_node in ast.walk(inner.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
    return frozenset(bound - hoisted)


def _global_mutations(
    func: FunctionInfo, module_names: frozenset[str]
) -> Iterator[tuple[ast.AST, str]]:
    """(node, description) for each module-state mutation in ``func``."""
    declared_global: set[str] = set()
    for node in ast.walk(func.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    locals_ = _local_bindings(func)

    def is_module_name(name: str) -> bool:
        return name in module_names and name not in locals_

    for node in ast.walk(func.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and (
                    target.id in declared_global
                ):
                    yield node, f"rebinds global '{target.id}'"
                elif isinstance(
                    target, (ast.Subscript, ast.Attribute)
                ) and isinstance(target.value, ast.Name):
                    name = target.value.id
                    if is_module_name(name) or name in declared_global:
                        yield node, f"stores into module-level '{name}'"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            name = node.func.value.id
            if is_module_name(name) or name in declared_global:
                yield node, (
                    f"mutates module-level '{name}' via "
                    f".{node.func.attr}()"
                )


class PoolSharedStateRule:
    """RL103: no module-level mutable state behind pool task functions."""

    rule_id = "RL103"
    name = "pool-shared-mutable-state"
    summary = (
        "functions shipped to pool workers (and their callees) must "
        "not mutate module-level state; use the initializer= hook"
    )

    def check_project(
        self, modules: list[ModuleSource]
    ) -> Iterator[Finding]:
        index = ProjectIndex.build(modules)
        resolvers: dict[str, CallResolver] = {}

        def resolver_for(func: FunctionInfo) -> CallResolver:
            if func.qualname not in resolvers:
                resolvers[func.qualname] = CallResolver(index, func)
            return resolvers[func.qualname]

        entries: dict[str, str] = {}  # qualname -> submit-site location
        initializers: set[str] = set()
        for func in index.functions.values():
            resolver = resolver_for(func)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                for keyword in node.keywords:
                    if keyword.arg == "initializer":
                        target = resolver.resolve_reference(
                            keyword.value, at=node
                        )
                        if target is not None:
                            initializers.add(target.qualname)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SUBMIT_METHODS
                    and node.args
                ):
                    target = resolver.resolve_reference(
                        node.args[0], at=node
                    )
                    if target is not None:
                        entries.setdefault(
                            target.qualname,
                            f"{func.module.path}:{node.lineno}",
                        )

        # Reachability from entries, skipping initializer-only paths.
        reachable: dict[str, tuple[str, str]] = {}  # qual -> (entry, via)
        queue = [
            (qual, qual, site)
            for qual, site in sorted(entries.items())
            if qual not in initializers
        ]
        while queue:
            qual, entry, site = queue.pop(0)
            if qual in reachable:
                continue
            reachable[qual] = (entry, site)
            func = index.functions[qual]
            resolver = resolver_for(func)
            for node in ast.walk(func.node):
                if isinstance(node, ast.Call):
                    callee = resolver.resolve(node)
                    if (
                        callee is not None
                        and callee.qualname not in reachable
                        and callee.qualname not in initializers
                    ):
                        queue.append((callee.qualname, entry, site))

        module_names = {
            name: _module_level_names(module)
            for name, module in index.modules.items()
        }
        for qual in sorted(reachable):
            func = index.functions[qual]
            entry, site = reachable[qual]
            for node, what in _global_mutations(
                func, module_names[func.module.module]
            ):
                via = (
                    "a pool task function"
                    if qual == entry
                    else f"reached from pool task {entry}()"
                )
                yield finding_at(
                    func.module.path,
                    node,
                    self.rule_id,
                    f"{func.qualname}() {what} but runs in pool worker "
                    f"processes ({via}; submitted at {site}); "
                    "worker-side mutations are per-process and "
                    "diverge across workers — thread state through "
                    "arguments/returns or initialize it via the "
                    "executor's initializer= hook",
                )
