"""RL004 — non-atomic durable writes in the registry/distrib zone.

The crash-safety story of the run registry rests on exactly two write
idioms:

* **atomic replace** — write a unique same-directory temp file, then
  ``os.replace``/``os.link`` it into place (the transport's
  ``write_atomic``, :mod:`repro.runs.transport`); readers see the old
  content or the new, never a torn file, and the presence of
  ``result.json`` can safely *mean* completion;
* **append-only streaming** — the ``history.jsonl`` log, opened with
  mode ``"a"``, where a torn tail line is detected and dropped.

With the pluggable registry transport a third idiom joins them: the
**conditional put** (:mod:`repro.runs.transport`). ``write_atomic``
replaces a value whole (temp + ``os.replace`` on fs, one ``PUT`` on
object stores), ``create_if_absent``/``put_if_match`` commit a whole body iff a version
precondition holds, and ``append_line`` is the stream append — all
atomic by the transport contract, so calls through them are sanctioned
writes, never findings (:data:`ATOMIC_TRANSPORT_METHODS`).

A bare ``open(path, "w")``, ``Path.write_text``, or streaming
``json.dump`` to a registry artifact re-introduces the
half-written-file window every peer (worker, coordinator, ``--status``,
resume) would then have to defend against. The rule flags write-mode
opens, ``write_text``/``write_bytes`` method calls, and ``json.dump``
in the durable zone.

The temp-file half of the atomic idiom itself is recognized by
dataflow, not by pragma: a write whose target name later flows into an
``os.replace``/``os.rename``/``os.link`` promotion (or a
``.replace()``/``.rename()`` method call) in the same function is the
idiom, not a violation. Whether that promotion happens on *all* paths
is the deep pass's job (RL102, :mod:`repro.lint.flows.atomic`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ModuleSource
from ..findings import Finding, finding_at
from ..names import ModuleResolver, parent_map

_WRITE_METHOD_NAMES = frozenset({"write_text", "write_bytes"})

#: ``os``-level promotion functions: first argument is the temp path.
PROMOTE_FUNCS = frozenset({"os.replace", "os.rename", "os.link"})

#: Path-object promotion methods: the receiver is the temp path.
PROMOTE_METHODS = frozenset({"replace", "rename"})

#: Registry-transport write methods that are atomic by construction:
#: there is no torn intermediate state for this rule to guard against,
#: exactly as with an ``os.replace``-promoted temp file. Calls through
#: these names are sanctioned durable writes in any zone.
ATOMIC_TRANSPORT_METHODS = frozenset(
    {"write_atomic", "create_if_absent", "put_if_match", "append_line"}
)

_REMEDY = (
    "; write via the registry transport's write_atomic (unique temp + "
    "atomic rename) or append to the history.jsonl stream"
)


def _literal_mode(node: ast.Call, position: int) -> str | None:
    """The call's file-mode argument when it is a string literal."""
    mode: ast.AST | None = None
    if len(node.args) > position:
        mode = node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _is_write_mode(mode: str | None) -> bool:
    # Unreadable (non-literal) modes pass: the rule proves violations,
    # it does not guess. "r+" still rewrites in place, hence "+".
    return mode is not None and any(c in mode for c in "wx+a") and "a" not in mode


def enclosing_function(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """Nearest enclosing function definition of a node, or None."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None


def promoted_name(call: ast.Call, resolver: ModuleResolver) -> str | None:
    """The variable a call atomically promotes into place, or None.

    ``os.replace(tmp, dst)`` / ``os.rename`` / ``os.link`` promote their
    first argument; ``tmp.replace(dst)`` / ``tmp.rename(dst)`` promote
    their receiver.
    """
    qual = resolver.qualname(call)
    if qual in PROMOTE_FUNCS:
        if call.args and isinstance(call.args[0], ast.Name):
            return call.args[0].id
        return None
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in PROMOTE_METHODS
        and isinstance(func.value, ast.Name)
        and (call.args or call.keywords)
    ):
        return func.value.id
    return None


class NonAtomicWriteRule:
    """RL004: durable artifacts are written atomically or append-only."""

    rule_id = "RL004"
    name = "non-atomic-durable-write"
    summary = (
        "bare open(.., 'w')/write_text/json.dump in the durable zone; "
        "use the transport's write_atomic or the append-only history stream"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        resolver = ModuleResolver(module.tree, module=module.module)
        parents = parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            message, target = self._classify(node, resolver)
            if message is None:
                continue
            if target is not None and self._is_promoted(
                node, target, parents, resolver
            ):
                continue
            yield finding_at(
                module.path, node, self.rule_id, message + _REMEDY
            )

    def _classify(
        self, node: ast.Call, resolver: ModuleResolver
    ) -> tuple[str | None, str | None]:
        """(message, written-variable-name) of a write call, or (None, None).

        The variable name is the handle the atomic idiom would promote:
        the receiver of ``tmp.write_text(...)`` or the first argument of
        ``open(tmp, "w")`` when either is a plain name.
        """
        qual = resolver.qualname(node)
        if qual == "json.dump":
            return (
                "streaming json.dump() writes the document "
                "incrementally — a crash leaves a torn file"
            ), None
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if _is_write_mode(_literal_mode(node, position=1)):
                target = (
                    node.args[0].id
                    if node.args and isinstance(node.args[0], ast.Name)
                    else None
                )
                return "non-atomic open() in write mode", target
            return None, None
        if isinstance(func, ast.Attribute):
            if func.attr in ATOMIC_TRANSPORT_METHODS:
                return None, None  # conditional-put idiom: atomic by contract
            receiver = (
                func.value.id if isinstance(func.value, ast.Name) else None
            )
            if func.attr in _WRITE_METHOD_NAMES:
                return f"non-atomic .{func.attr}()", receiver
            if func.attr == "open" and _is_write_mode(
                _literal_mode(node, position=0)
            ):
                return "non-atomic .open() in write mode", receiver
        return None, None

    def _is_promoted(
        self,
        write: ast.Call,
        target: str,
        parents: dict[ast.AST, ast.AST],
        resolver: ModuleResolver,
    ) -> bool:
        """Whether ``target`` is later atomically promoted in this function."""
        scope = enclosing_function(write, parents)
        if scope is None:
            return False
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and node.lineno >= write.lineno
                and node is not write
                and promoted_name(node, resolver) == target
            ):
                return True
        return False
