"""Qualified-name resolution for AST call sites.

The rules match calls against fully-qualified names (``time.time``,
``numpy.random.randint``) regardless of how the module was imported —
``import time``, ``from time import time``, ``import time as clock``
all resolve to the same canonical chain. Resolution is import-anchored: a
dotted chain whose first segment is not an import binding resolves to
``None``, so a local variable that happens to be called ``random``
never false-positives a module-level-RNG rule (method-name heuristics,
where a rule wants them, are the rule's own choice).

Two refinements serve the whole-program mode:

* :func:`absolutize` canonicalizes relative imports (``from ..runs
  import seeds``) against the importing module's dotted name, so the
  call graph can match them to project modules;
* :class:`ModuleResolver` is scope-aware — a function parameter that
  shadows an import binding (``def f(random): random.shuffle(x)``)
  un-anchors the chain instead of resolving to the stdlib module.
"""

from __future__ import annotations

import ast


def attr_chain(node: ast.AST) -> str | None:
    """Dotted source chain of a Name/Attribute expression, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Local import bindings of one module: alias -> qualified path."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports.aliases[alias.asname] = alias.name
                    else:
                        # ``import os.path`` binds only ``os``.
                        root = alias.name.split(".", 1)[0]
                        imports.aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    qualified = f"{base}.{alias.name}" if base else alias.name
                    imports.aliases[bound] = qualified
        return imports

    def resolve(self, chain: str | None) -> str | None:
        """Canonical form of a dotted chain, or None when unanchored."""
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


def absolutize(
    qualified: str | None, module: str, is_package: bool = False
) -> str | None:
    """Resolve a leading-dots qualified name against its module.

    ``ImportMap`` stores relative imports with their dots intact
    (``..runs.seeds.derive_seed``); given the importing module's dotted
    name this rewrites them absolute (``repro.runs.seeds.derive_seed``).
    ``is_package`` marks ``__init__.py`` modules, whose own name *is*
    the package a single leading dot refers to. Absolute names pass
    through unchanged; an import that climbs past the package root
    resolves to ``None``.
    """
    if qualified is None or not qualified.startswith("."):
        return qualified
    level = len(qualified) - len(qualified.lstrip("."))
    rest = qualified[level:]
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        if level - 1 > len(parts):
            return None
        parts = parts[: len(parts) - (level - 1)]
    if not parts:
        return rest or None
    base = ".".join(parts)
    return f"{base}.{rest}" if rest else base


def _function_bindings(node: ast.AST) -> frozenset[str]:
    """Names a function/lambda node binds as parameters."""
    args = node.args
    names = {
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return frozenset(names)


def shadow_map(tree: ast.AST) -> dict[ast.AST, frozenset[str]]:
    """Per-node set of names shadowed by enclosing function parameters.

    Only parameter bindings are tracked — they are the shadowing source
    the rules actually meet (``def sample(random): ...``); full local
    dataflow is the taint engine's job, not name resolution's.
    """
    shadows: dict[ast.AST, frozenset[str]] = {}
    stack: list[tuple[ast.AST, frozenset[str]]] = [(tree, frozenset())]
    while stack:
        node, active = stack.pop()
        shadows[node] = active
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            active = active | _function_bindings(node)
        for child in ast.iter_child_nodes(node):
            stack.append((child, active))
    return shadows


class ModuleResolver:
    """Scope-aware qualified-name resolution for one module.

    Combines the module's :class:`ImportMap` with parameter-shadowing
    information and relative-import canonicalization, so a single call
    answers "what fully-qualified thing does this call target" for both
    the per-file rules and the whole-program call graph.
    """

    def __init__(
        self, tree: ast.AST, module: str = "", is_package: bool = False
    ) -> None:
        self.module = module
        self.is_package = is_package
        self.imports = ImportMap.from_tree(tree)
        self._shadows = shadow_map(tree)

    def shadowed(self, node: ast.AST) -> frozenset[str]:
        return self._shadows.get(node, frozenset())

    def resolve_chain(self, chain: str | None, at: ast.AST) -> str | None:
        """Canonical absolute name of a dotted chain at a node, or None."""
        if chain is None:
            return None
        head = chain.partition(".")[0]
        if head in self._shadows.get(at, frozenset()):
            return None
        return absolutize(
            self.imports.resolve(chain), self.module, self.is_package
        )

    def qualname(self, call: ast.Call) -> str | None:
        """Canonical absolute name of a call's target, or None."""
        return self.resolve_chain(attr_chain(call.func), call)


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child -> parent mapping for one module tree."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents
