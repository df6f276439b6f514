"""Project-wide call graph over the scanned module set.

The deep pass needs to answer one question precisely: *which project
function does this call site invoke?* Resolution is anchored on the
same import machinery the per-file rules use (:mod:`repro.lint.names`),
extended across files:

* bare names resolve to nested/enclosing defs, then module-level defs,
  then imported project functions (relative imports canonicalized);
* ``self.m()`` / ``cls.m()`` resolve through the enclosing class and
  its project-local bases (declaration-order MRO walk);
* ``obj.m()`` resolves when ``obj``'s class is knowable through the
  common dataclass/config idiom — an annotated parameter, an annotated
  class attribute (dataclass field), a ``self.x = ClassName(...)``
  constructor assignment, or a local ``x = ClassName(...)``;
* everything else resolves to ``None`` — the analysis under-approximates
  edges rather than guessing, so findings stay provable.

The index also records, per class, its attribute type table; the taint
engine shares it for the same receiver-type questions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .engine import ModuleSource
from .names import ModuleResolver, attr_chain

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class FunctionInfo:
    """One function or method definition in the scanned tree."""

    qualname: str
    module: ModuleSource
    node: FunctionNode
    #: Qualname of the enclosing class for methods, else None.
    owner: str | None = None

    @property
    def location(self) -> str:
        return f"{self.module.path}:{self.node.lineno}"

    def param_names(self) -> list[str]:
        args = self.node.args
        return [a.arg for a in (*args.posonlyargs, *args.args)]


@dataclass
class ClassInfo:
    """One class definition: methods, bases, and attribute types."""

    qualname: str
    module: ModuleSource
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> class qualname, from dataclass-field/``__init__``
    #: annotations and ``self.x = ClassName(...)`` constructor assignments.
    attr_types: dict[str, str] = field(default_factory=dict)


def _annotation_chain(node: ast.expr | None) -> str | None:
    """Dotted chain named by an annotation, unwrapping the common forms.

    Handles string annotations, ``T | None`` unions, and
    ``Optional[T]`` — the shapes the config/dataclass idiom actually
    uses. Anything fancier resolves to None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_chain(node.left)
        if left is not None:
            return left
        return _annotation_chain(node.right)
    if isinstance(node, ast.Subscript):
        base = attr_chain(node.value)
        if base is not None and base.split(".")[-1] == "Optional":
            return _annotation_chain(node.slice)
        return None
    return attr_chain(node)


class ProjectIndex:
    """Functions, classes, and resolvers of the whole scanned tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleSource] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.resolvers: dict[str, ModuleResolver] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, modules: list[ModuleSource]) -> "ProjectIndex":
        index = cls()
        for module in modules:
            index.modules[module.module] = module
            index.resolvers[module.module] = ModuleResolver(
                module.tree,
                module=module.module,
                is_package=module.path.name == "__init__.py",
            )
        for module in modules:
            index._index_module(module)
        for info in index.classes.values():
            index._infer_attr_types(info)
        return index

    def _index_module(self, module: ModuleSource) -> None:
        resolver = self.resolvers[module.module]

        def walk(body: list[ast.stmt], prefix: str, owner: str | None) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{node.name}"
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        module=module,
                        node=node,
                        owner=owner,
                    )
                    walk(node.body, qualname, None)
                elif isinstance(node, ast.ClassDef):
                    qualname = f"{prefix}.{node.name}"
                    bases = []
                    for base in node.bases:
                        resolved = resolver.resolve_chain(
                            attr_chain(base), base
                        ) or self._same_module_class(module, base)
                        if resolved is not None:
                            bases.append(resolved)
                    info = ClassInfo(
                        qualname=qualname,
                        module=module,
                        node=node,
                        bases=tuple(bases),
                    )
                    self.classes[qualname] = info
                    for stmt in node.body:
                        if isinstance(
                            stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            method = FunctionInfo(
                                qualname=f"{qualname}.{stmt.name}",
                                module=module,
                                node=stmt,
                                owner=qualname,
                            )
                            info.methods[stmt.name] = method
                            self.functions[method.qualname] = method
                            walk(stmt.body, method.qualname, None)

        walk(module.tree.body, module.module, None)

    def _same_module_class(
        self, module: ModuleSource, node: ast.expr
    ) -> str | None:
        if isinstance(node, ast.Name):
            candidate = f"{module.module}.{node.id}"
            for other in module.tree.body:
                if isinstance(other, ast.ClassDef) and other.name == node.id:
                    return candidate
        return None

    def _infer_attr_types(self, info: ClassInfo) -> None:
        """Fill a class's attribute type table (dataclass/config idiom)."""
        resolver = self.resolvers[info.module.module]
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                target_cls = self.resolve_class_chain(
                    _annotation_chain(stmt.annotation), resolver, stmt
                )
                if target_cls is not None:
                    info.attr_types[stmt.target.id] = target_cls
        init = info.methods.get("__init__")
        if init is None:
            return
        for node in ast.walk(init.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
                annotated = self.resolve_class_chain(
                    _annotation_chain(node.annotation), resolver, node
                )
                if (
                    annotated is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.attr_types.setdefault(target.attr, annotated)
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Call)
            ):
                constructed = self.resolve_class_chain(
                    attr_chain(value.func), resolver, value
                )
                if constructed is not None:
                    info.attr_types.setdefault(target.attr, constructed)

    # -- lookups --------------------------------------------------------
    def resolve_class_chain(
        self,
        chain: str | None,
        resolver: ModuleResolver,
        at: ast.AST,
    ) -> str | None:
        """Project-class qualname named by a chain at a node, or None."""
        if chain is None:
            return None
        resolved = resolver.resolve_chain(chain, at)
        if resolved is not None and resolved in self.classes:
            return resolved
        candidate = f"{resolver.module}.{chain}"
        if candidate in self.classes:
            return candidate
        return None

    def resolve_method(self, cls_qual: str, name: str) -> FunctionInfo | None:
        """Method lookup through a class and its project-local bases."""
        seen: set[str] = set()
        queue = [cls_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            queue.extend(info.bases)
        return None


class CallResolver:
    """Resolves call sites of one function to project functions."""

    def __init__(self, index: ProjectIndex, caller: FunctionInfo) -> None:
        self.index = index
        self.caller = caller
        self.resolver = index.resolvers[caller.module.module]
        #: Local variable -> class qualname, from annotated params and
        #: ``x = ClassName(...)`` constructor assignments.
        self.local_types = self._local_types()

    def _local_types(self) -> dict[str, str]:
        types: dict[str, str] = {}
        node = self.caller.node
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            cls = self.index.resolve_class_chain(
                _annotation_chain(arg.annotation), self.resolver, node
            )
            if cls is not None:
                types[arg.arg] = cls
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                cls = self.index.resolve_class_chain(
                    attr_chain(stmt.value.func), self.resolver, stmt.value
                )
                if cls is not None:
                    types[stmt.targets[0].id] = cls
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                cls = self.index.resolve_class_chain(
                    _annotation_chain(stmt.annotation), self.resolver, stmt
                )
                if cls is not None:
                    types[stmt.target.id] = cls
        return types

    def _receiver_class(self, chain_head: str) -> str | None:
        if chain_head in ("self", "cls") and self.caller.owner is not None:
            return self.caller.owner
        return self.local_types.get(chain_head)

    def resolve(self, call: ast.Call) -> FunctionInfo | None:
        """The project function a call invokes, or None."""
        return self.resolve_reference(call.func, at=call)

    def resolve_reference(
        self, func_expr: ast.expr, at: ast.AST | None = None
    ) -> FunctionInfo | None:
        """The project function a name/attribute chain denotes, or None.

        Same resolution as :meth:`resolve`, but for bare references —
        the ``fn`` in ``pool.submit(fn, item)`` or an
        ``initializer=fn`` keyword.
        """
        at = at if at is not None else func_expr
        chain = attr_chain(func_expr)
        if chain is None:
            return None
        parts = chain.split(".")
        head = parts[0]
        if head in self.resolver.shadowed(at) and head not in (
            "self",
            "cls",
        ):
            # A parameter shadows the name; its class may still be known.
            if len(parts) == 2:
                cls = self.local_types.get(head)
                if cls is not None:
                    return self.index.resolve_method(cls, parts[1])
            return None
        if len(parts) == 1:
            return self._resolve_bare(head)
        receiver_cls = self._receiver_class(head)
        if receiver_cls is not None:
            # self.m() / typed_obj.m() / self.attr.m() method chains.
            for attr in parts[1:-1]:
                info = self.index.classes.get(receiver_cls)
                if info is None:
                    return None
                receiver_cls = info.attr_types.get(attr)
                if receiver_cls is None:
                    return None
            return self.index.resolve_method(receiver_cls, parts[-1])
        resolved = self.resolver.resolve_chain(chain, at)
        if resolved is None:
            return None
        if resolved in self.index.functions:
            return self.index.functions[resolved]
        # ``from x import Class`` then ``Class.method(...)``.
        cls_part, _, method = resolved.rpartition(".")
        if cls_part in self.index.classes:
            return self.index.resolve_method(cls_part, method)
        return None

    def _resolve_bare(self, name: str) -> FunctionInfo | None:
        # Nested def in the enclosing function chain, innermost out —
        # class-qualname prefixes are skipped (a bare name never means
        # an unbound method of the enclosing class).
        module_name = self.caller.module.module
        prefix = self.caller.qualname
        while prefix != module_name:
            if prefix in self.index.functions:
                candidate = f"{prefix}.{name}"
                if candidate in self.index.functions:
                    return self.index.functions[candidate]
            prefix = prefix.rpartition(".")[0]
        candidate = f"{module_name}.{name}"
        if candidate in self.index.functions:
            return self.index.functions[candidate]
        resolved = self.resolver.resolve_chain(name, self.caller.node)
        if resolved is not None and resolved in self.index.functions:
            return self.index.functions[resolved]
        return None
