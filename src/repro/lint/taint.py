"""Interprocedural taint: nondeterminism sources → durable sinks.

The per-file rules prove *syntactic* invariants; this engine proves the
*flow* invariant behind them: no nondeterministic value — unseeded
entropy, wall-clock reads, environment lookups, set/pool iteration
order — may reach the durable artifacts other processes trust
(checkpoint serializers, the ``history.jsonl`` stream, ``result.json``/
warm-store writes, ``derive_seed`` inputs), no matter how many calls it
flows through on the way.

The analysis is summary-based and runs to a fixpoint over the project
call graph:

* each function gets a :class:`Summary` — whether its return value is
  intrinsically tainted, which parameters flow to its return, and which
  parameters reach a durable sink inside it (transitively);
* an intraprocedural pass propagates taint through assignments,
  containers, returns, and resolved calls, consuming callee summaries;
* witnesses carry a human-readable hop chain, so every finding prints
  the full source→sink call path.

Design choices, stated so they are reviewable: branch bodies are
analyzed flow-insensitively (later assignments kill earlier taint —
the analysis under-approximates rather than guesses), dict-key taint
does not taint the dict (content-identical, order-divergent dicts are
out of scope), and unresolved calls propagate their arguments' value
taint through to their result (pure helpers keep taint; sanctioned
sanitizers like ``sorted()`` are special-cased).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from .callgraph import CallResolver, FunctionInfo, ProjectIndex
from .names import attr_chain
from .rules.clock import WALL_CLOCK_CALLS
from .rules.rng import classify_unseeded

#: Taint kinds whose hazard is *iteration order*, not value entropy —
#: ``sorted()`` is a full sanitizer for these.
ORDER_KINDS = frozenset({"set-order", "pool-order"})

#: Entropy sources beyond the RNG rule's scope: process identity and
#: unique-id generators whose values must never enter durable results.
_ENTROPY_CALLS = frozenset(
    {
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "os.getpid",
        "secrets.token_hex",
        "secrets.token_bytes",
        "secrets.token_urlsafe",
    }
)

_ENV_CALLS = frozenset({"os.getenv", "os.environ.get"})

#: Completion-order iteration over worker pools.
_POOL_ORDER_CALLS = frozenset({"concurrent.futures.as_completed"})
_POOL_ORDER_METHODS = frozenset({"imap_unordered", "as_completed"})

#: Builtins that materialize their argument's iteration order.
_ORDER_MATERIALIZERS = frozenset(
    {"list", "tuple", "enumerate", "iter", "reversed", "next"}
)

#: Builtins whose result is order-insensitive even over a set.
_ORDER_NEUTRAL = frozenset({"len", "sum", "min", "max", "any", "all", "bool"})

#: The checkpoint serializer module (sink family 1).
SERIALIZER_MODULE = "repro.runs.checkpoint"

#: Durable registry write methods (sink family 2) — matched by method
#: name so an unannotated ``handle`` parameter still hits the sink.
DURABLE_WRITE_METHODS = frozenset(
    {
        "log_history",
        "save_checkpoint",
        "finish",
        "record_error",
        "save_warm_summaries",
    }
)

#: Seed-derivation functions (sink family 3): a tainted key part gives
#: every downstream draw a nondeterministic stream.
_SEED_SINKS = frozenset(
    {"repro.runs.seeds.derive_seed", "repro.runs.seeds.stable_digest"}
)

#: Transport artifact writes (sink family 4) — matched by method name
#: like the registry writes, so ``node.write_atomic(...)`` on an
#: unannotated :class:`~repro.runs.transport.RunNode` still hits the
#: sink. Only the unconditional artifact write is a determinism sink:
#: the conditional-put coordination writes (``create_if_absent``/
#: ``put_if_match`` of lease state) intentionally carry owner nonces
#: and wall-clock deadlines, and ``append_line`` carries timestamped
#: telemetry — nondeterministic by design, never replayed into results.
TRANSPORT_WRITE_METHODS = frozenset({"write_atomic"})

#: Cap on witness chains — beyond this the story is long enough.
_MAX_CHAIN = 16


@dataclass(frozen=True)
class TaintSource:
    kind: str
    location: str
    description: str


@dataclass(frozen=True)
class Witness:
    """One tainted value and the hop chain that produced it."""

    source: TaintSource
    chain: tuple[str, ...]

    def extended(self, hop: str) -> "Witness":
        if len(self.chain) >= _MAX_CHAIN:
            return self
        return replace(self, chain=(*self.chain, hop))


@dataclass(frozen=True)
class SinkReach:
    """A durable sink reachable from a function parameter."""

    sink: str
    location: str
    chain: tuple[str, ...]

    def prefixed(self, hop: str) -> "SinkReach":
        if len(self.chain) >= _MAX_CHAIN:
            return self
        return replace(self, chain=(hop, *self.chain))


@dataclass
class Summary:
    """What a function does with taint, seen from its callers."""

    returns: Witness | None = None
    returns_params: frozenset[int] = frozenset()
    param_sinks: dict[int, SinkReach] = field(default_factory=dict)

    def signature(self) -> tuple:
        """Convergence key: chains are write-once, so flags suffice."""
        return (
            self.returns is not None,
            self.returns_params,
            frozenset(self.param_sinks),
        )


@dataclass(frozen=True)
class TaintFlow:
    """One source→sink flow, ready to become a finding."""

    path: str
    node: ast.AST
    source: TaintSource
    sink: str
    trace: tuple[str, ...]


@dataclass
class _Value:
    """Abstract value of one expression."""

    witness: Witness | None = None
    params: frozenset[int] = frozenset()
    is_set: bool = False

    @classmethod
    def merge(cls, *values: "_Value") -> "_Value":
        witness = None
        params: frozenset[int] = frozenset()
        is_set = False
        for value in values:
            if witness is None:
                witness = value.witness
            params |= value.params
            is_set = is_set or value.is_set
        return cls(witness=witness, params=params, is_set=is_set)


_CLEAN = _Value()


def _is_set_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    chain = attr_chain(
        annotation.value if isinstance(annotation, ast.Subscript) else annotation
    )
    if chain is None:
        return False
    return chain.split(".")[-1] in {"set", "frozenset", "Set", "FrozenSet"}


class TaintEngine:
    """Whole-program fixpoint over function summaries."""

    def __init__(self, index: ProjectIndex, max_rounds: int = 20) -> None:
        self.index = index
        self.max_rounds = max_rounds
        self.summaries: dict[str, Summary] = {}
        self._resolvers: dict[str, CallResolver] = {}

    def resolver_for(self, func: FunctionInfo) -> CallResolver:
        resolver = self._resolvers.get(func.qualname)
        if resolver is None:
            resolver = CallResolver(self.index, func)
            self._resolvers[func.qualname] = resolver
        return resolver

    def run(self) -> list[TaintFlow]:
        names = sorted(self.index.functions)
        self.summaries = {name: Summary() for name in names}
        for _ in range(self.max_rounds):
            changed = False
            for name in names:
                func = self.index.functions[name]
                summary = _FunctionPass(self, func).summarize()
                if summary.signature() != self.summaries[name].signature():
                    changed = True
                self.summaries[name] = summary
            if not changed:
                break
        flows: list[TaintFlow] = []
        seen: set[tuple] = set()
        for name in names:
            func = self.index.functions[name]
            for flow in _FunctionPass(self, func).collect_flows():
                key = (flow.path, flow.node.lineno, flow.sink, flow.source)
                if key not in seen:
                    seen.add(key)
                    flows.append(flow)
        return flows


class _FunctionPass:
    """One intraprocedural pass over a function body."""

    def __init__(self, engine: TaintEngine, func: FunctionInfo) -> None:
        self.engine = engine
        self.func = func
        self.resolver = engine.resolver_for(func)
        self.module = func.module
        self.values: dict[str, _Value] = {}
        self.returns: Witness | None = None
        self.returns_params: frozenset[int] = frozenset()
        self.param_sinks: dict[int, SinkReach] = {}
        self.flows: list[TaintFlow] = []
        self.emit = False
        for position, (name, annotation) in enumerate(self._all_params()):
            self.values[name] = _Value(
                params=frozenset({position}),
                is_set=_is_set_annotation(annotation),
            )

    def _all_params(self) -> list[tuple[str, ast.expr | None]]:
        args = self.func.node.args
        params = [
            (a.arg, a.annotation)
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        if args.vararg:
            params.append((args.vararg.arg, None))
        if args.kwarg:
            params.append((args.kwarg.arg, None))
        return params

    def _location(self, node: ast.AST) -> str:
        return f"{self.module.path}:{getattr(node, 'lineno', 1)}"

    def _hop(self, node: ast.AST, what: str) -> str:
        return f"{self.func.qualname} ({self._location(node)}): {what}"

    # -- entry points ---------------------------------------------------
    def summarize(self) -> Summary:
        self._run_body()
        return Summary(
            returns=self.returns,
            returns_params=self.returns_params,
            param_sinks=self.param_sinks,
        )

    def collect_flows(self) -> list[TaintFlow]:
        self.emit = True
        self._run_body()
        return self.flows

    def _run_body(self) -> None:
        # Two sweeps propagate taint around loop back-edges; the second
        # sweep re-emits, so flow collection de-duplicates at the engine.
        for _ in range(2):
            for stmt in self.func.node.body:
                self._exec(stmt)

    # -- statements -----------------------------------------------------
    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            value = self._eval(stmt.value) if stmt.value else _CLEAN
            if _is_set_annotation(stmt.annotation):
                value = replace(value, is_set=True)
            self._assign(stmt.target, value, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.values.get(stmt.target.id, _CLEAN)
                self.values[stmt.target.id] = _Value.merge(current, value)
            else:
                self._assign(stmt.target, value, stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value)
                if self.returns is None:
                    self.returns = value.witness
                self.returns_params |= value.params
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.For):
            iterated = self._eval(stmt.iter)
            element = self._element_of(iterated, stmt.iter)
            self._assign(stmt.target, element, stmt.iter)
            for _ in range(2):
                for inner in stmt.body:
                    self._exec(inner)
            for inner in stmt.orelse:
                self._exec(inner)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for _ in range(2):
                for inner in stmt.body:
                    self._exec(inner)
            for inner in stmt.orelse:
                self._exec(inner)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            for inner in (*stmt.body, *stmt.orelse):
                self._exec(inner)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                context = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, context, item.context_expr)
            for inner in stmt.body:
                self._exec(inner)
        elif isinstance(stmt, ast.Try):
            for inner in stmt.body:
                self._exec(inner)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._exec(inner)
            for inner in (*stmt.orelse, *stmt.finalbody):
                self._exec(inner)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.values.pop(target.id, None)
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Nested defs/classes are summarized separately; imports, pass,
        # global/nonlocal, break/continue carry no dataflow here.

    def _assign(
        self, target: ast.expr, value: _Value, source: ast.expr | None
    ) -> None:
        if isinstance(target, ast.Name):
            self.values[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = (
                self._element_of(value, source) if source is not None else value
            )
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self._assign(inner, element, None)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            self.values[f"{target.value.id}.{target.attr}"] = value
        elif isinstance(target, ast.Subscript):
            # Weak update: a container holding a tainted value is tainted.
            if value.witness is not None and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
                current = self.values.get(name, _CLEAN)
                self.values[name] = _Value.merge(
                    current, replace(value, is_set=current.is_set)
                )

    def _element_of(self, value: _Value, expr: ast.expr | None) -> _Value:
        """Value of one element drawn by iterating ``value``."""
        if value.is_set and expr is not None:
            witness = value.witness or self._order_witness(expr)
            return replace(value, witness=witness, is_set=False)
        return replace(value, is_set=False)

    def _order_witness(self, node: ast.expr) -> Witness:
        source = TaintSource(
            kind="set-order",
            location=self._location(node),
            description=(
                "iteration over a set — element order is hash-seed and "
                "insertion-history dependent"
            ),
        )
        return Witness(
            source=source,
            chain=(self._hop(node, "iterates a set unsorted"),),
        )

    # -- expressions ----------------------------------------------------
    def _eval(self, node: ast.expr | None) -> _Value:
        if node is None:
            return _CLEAN
        if isinstance(node, ast.Name):
            return self.values.get(node.id, _CLEAN)
        if isinstance(node, ast.Constant):
            return _CLEAN
        if isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            if chain is not None and chain in self.values:
                return self.values[chain]
            return replace(self._eval(node.value), is_set=False)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.Set,)):
            return replace(
                _Value.merge(*(self._eval(e) for e in node.elts)), is_set=True
            )
        if isinstance(node, (ast.Tuple, ast.List)):
            return replace(
                _Value.merge(*(self._eval(e) for e in node.elts)), is_set=False
            )
        if isinstance(node, ast.Dict):
            # Key taint deliberately dropped: same keys, different
            # insertion order, identical content.
            return _Value.merge(
                *(self._eval(v) for v in node.values if v is not None)
            )
        if isinstance(node, ast.BinOp):
            return _Value.merge(self._eval(node.left), self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return _Value.merge(*(self._eval(v) for v in node.values))
        if isinstance(node, ast.UnaryOp):
            return replace(self._eval(node.operand), is_set=False)
        if isinstance(node, ast.Compare):
            merged = _Value.merge(
                self._eval(node.left), *(self._eval(c) for c in node.comparators)
            )
            # Membership and ordering observe values, not iteration
            # order: drop order taint, keep value taint.
            if merged.witness is not None and merged.witness.source.kind in (
                ORDER_KINDS
            ):
                merged = replace(merged, witness=None)
            return replace(merged, is_set=False)
        if isinstance(node, ast.IfExp):
            return _Value.merge(
                self._eval(node.test),
                self._eval(node.body),
                self._eval(node.orelse),
            )
        if isinstance(node, ast.Subscript):
            return replace(self._eval(node.value), is_set=False)
        if isinstance(node, ast.Starred):
            return self._element_of(self._eval(node.value), node.value)
        if isinstance(node, ast.JoinedStr):
            return _Value.merge(*(self._eval(v) for v in node.values))
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(node)
        if isinstance(node, ast.Lambda):
            return _CLEAN
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value)
        if isinstance(node, ast.Yield):
            return self._eval(node.value) if node.value else _CLEAN
        return _CLEAN

    def _eval_comprehension(self, node: ast.expr) -> _Value:
        for comp in node.generators:
            iterated = self._eval(comp.iter)
            self._assign(comp.target, self._element_of(iterated, comp.iter),
                         comp.iter)
            for condition in comp.ifs:
                self._eval(condition)
        if isinstance(node, ast.DictComp):
            result = self._eval(node.value)
        elif isinstance(node, ast.SetComp):
            result = replace(self._eval(node.elt), is_set=True)
        else:
            result = self._eval(node.elt)
        # A comprehension over a set materializes its iteration order
        # (SetComp excepted: the result's own order is the hazard, and
        # it re-flags on its next iteration).
        return result

    # -- calls ----------------------------------------------------------
    def _eval_call(self, call: ast.Call) -> _Value:
        qual = self.resolver.resolver.qualname(call)
        chain = attr_chain(call.func)
        arg_values = [self._eval(a) for a in call.args]
        keyword_values = [(k.arg, self._eval(k.value)) for k in call.keywords]
        merged_args = _Value.merge(
            *arg_values, *(v for _, v in keyword_values)
        )

        # Sanctioned sanitizer: sorted() pins an order and emits a list.
        if isinstance(call.func, ast.Name) and call.func.id == "sorted":
            if (
                merged_args.witness is not None
                and merged_args.witness.source.kind in ORDER_KINDS
            ):
                merged_args = replace(merged_args, witness=None)
            return replace(merged_args, is_set=False)
        if isinstance(call.func, ast.Name) and call.func.id in _ORDER_NEUTRAL:
            if (
                merged_args.witness is not None
                and merged_args.witness.source.kind in ORDER_KINDS
            ):
                merged_args = replace(merged_args, witness=None)
            return replace(merged_args, is_set=False)

        # Intrinsic sources.
        source = self._classify_source(call, qual, chain)
        if source is not None:
            witness = Witness(
                source=source,
                chain=(self._hop(call, source.description),),
            )
            return _Value.merge(
                replace(merged_args, witness=witness), merged_args
            )

        # Set constructors and order materializers.
        if isinstance(call.func, ast.Name):
            name = call.func.id
            if name in ("set", "frozenset"):
                return replace(merged_args, is_set=True)
            if name in _ORDER_MATERIALIZERS and any(
                v.is_set for v in arg_values
            ):
                witness = merged_args.witness or self._order_witness(call)
                return replace(merged_args, witness=witness, is_set=False)
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "join"
            and any(v.is_set for v in arg_values)
        ):
            witness = merged_args.witness or self._order_witness(call)
            return replace(merged_args, witness=witness, is_set=False)

        # Receiver of a bound call contributes its taint (and becomes
        # argument 0 of a resolved method).
        receiver = (
            self._eval(call.func.value)
            if isinstance(call.func, ast.Attribute)
            else None
        )

        callee = self.resolver.resolve(call)
        sink = self._sink_label(call, qual, callee)
        positional = self._bind_positions(call, callee, arg_values, receiver)

        if sink is not None:
            self._check_sink_args(
                call, sink, arg_values, keyword_values, receiver
            )
        if callee is not None:
            return self._apply_summary(
                call, callee, positional, merged_args, receiver
            )

        # Unresolved call: value taint flows through.
        merged = (
            _Value.merge(merged_args, receiver)
            if receiver is not None
            else merged_args
        )
        return replace(merged, is_set=False)

    def _classify_source(
        self, call: ast.Call, qual: str | None, chain: str | None
    ) -> TaintSource | None:
        if qual is not None:
            rng_reason = classify_unseeded(qual, call)
            if rng_reason is not None:
                return TaintSource("rng", self._location(call), rng_reason)
            if qual in WALL_CLOCK_CALLS:
                return TaintSource(
                    "clock",
                    self._location(call),
                    f"wall-clock read {qual}()",
                )
            if qual in _ENTROPY_CALLS:
                return TaintSource(
                    "entropy",
                    self._location(call),
                    f"{qual}() is unique per process/call by design",
                )
            if qual in _ENV_CALLS or (
                qual is not None and qual.startswith("os.environ.")
            ):
                return TaintSource(
                    "env",
                    self._location(call),
                    f"environment lookup {qual}()",
                )
            if qual in _POOL_ORDER_CALLS:
                return TaintSource(
                    "pool-order",
                    self._location(call),
                    f"{qual}() yields results in completion order",
                )
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _POOL_ORDER_METHODS
        ):
            return TaintSource(
                "pool-order",
                self._location(call),
                f".{call.func.attr}() yields results in completion order",
            )
        return None

    def _sink_label(
        self,
        call: ast.Call,
        qual: str | None,
        callee: FunctionInfo | None,
    ) -> str | None:
        if callee is not None:
            if callee.module.module == SERIALIZER_MODULE and (
                callee.node.name.endswith("_to_dict")
                or callee.node.name.endswith("_from_dict")
            ):
                return f"checkpoint serializer {callee.node.name}()"
            if callee.qualname in _SEED_SINKS:
                return f"seed derivation {callee.node.name}()"
            owner = callee.owner or ""
            if (
                owner.startswith("repro.runs.registry.")
                and callee.node.name in DURABLE_WRITE_METHODS
            ):
                return f"durable registry write .{callee.node.name}()"
            if (
                owner.startswith(
                    ("repro.runs.transport.", "repro.distrib.objectstore.")
                )
                and callee.node.name in TRANSPORT_WRITE_METHODS
            ):
                return f"durable transport write .{callee.node.name}()"
        if qual is not None:
            if qual.startswith(SERIALIZER_MODULE + ".") and (
                qual.endswith("_to_dict") or qual.endswith("_from_dict")
            ):
                return f"checkpoint serializer {qual.rsplit('.', 1)[1]}()"
            if qual in _SEED_SINKS:
                return f"seed derivation {qual.rsplit('.', 1)[1]}()"
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in DURABLE_WRITE_METHODS
            and callee is None
        ):
            return f"durable registry write .{call.func.attr}()"
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in TRANSPORT_WRITE_METHODS
            and callee is None
        ):
            return f"durable transport write .{call.func.attr}()"
        return None

    def _bind_positions(
        self,
        call: ast.Call,
        callee: FunctionInfo | None,
        arg_values: list[_Value],
        receiver: _Value | None,
    ) -> dict[int, _Value]:
        """Map callee parameter positions to the values passed."""
        if callee is None:
            return {}
        offset = 0
        positions: dict[int, _Value] = {}
        if callee.owner is not None and isinstance(call.func, ast.Attribute):
            offset = 1
            if receiver is not None:
                positions[0] = receiver
        names = callee.param_names()
        for position, value in enumerate(arg_values):
            if position < len(call.args) and isinstance(
                call.args[position], ast.Starred
            ):
                continue
            positions[position + offset] = value
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in names:
                positions[names.index(keyword.arg)] = self._eval(keyword.value)
        return positions

    def _apply_summary(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        positional: dict[int, _Value],
        merged_args: _Value,
        receiver: _Value | None,
    ) -> _Value:
        summary = self.engine.summaries.get(callee.qualname, Summary())

        # Tainted argument meets a parameter that reaches a sink.
        for position, value in positional.items():
            reach = summary.param_sinks.get(position)
            if reach is None:
                continue
            if value.witness is not None and self.emit:
                self.flows.append(
                    TaintFlow(
                        path=str(self.module.path),
                        node=call,
                        source=value.witness.source,
                        sink=reach.sink,
                        trace=(
                            *value.witness.chain,
                            self._hop(
                                call,
                                f"passes tainted value to {callee.qualname}()",
                            ),
                            *reach.chain,
                        ),
                    )
                )
            for param in value.params:
                self.param_sinks.setdefault(
                    param,
                    reach.prefixed(
                        self._hop(
                            call,
                            "forwards its parameter "
                            f"to {callee.qualname}()",
                        )
                    ),
                )

        # Return-value taint.
        result_params: frozenset[int] = frozenset()
        witness: Witness | None = None
        if summary.returns is not None:
            witness = summary.returns.extended(
                self._hop(
                    call, f"receives tainted return of {callee.qualname}()"
                )
            )
        for position in summary.returns_params:
            value = positional.get(position)
            if value is None:
                continue
            if witness is None and value.witness is not None:
                witness = value.witness.extended(
                    self._hop(
                        call,
                        "tainted value flows through "
                        f"{callee.qualname}() and back",
                    )
                )
            result_params |= value.params
        return _Value(witness=witness, params=result_params, is_set=False)

    def _check_sink_args(
        self,
        call: ast.Call,
        sink: str,
        arg_values: list[_Value],
        keyword_values: list[tuple[str | None, _Value]],
        receiver: _Value | None,
    ) -> None:
        tainted = [
            v
            for v in (*arg_values, *(v for _, v in keyword_values))
            if v.witness is not None
        ]
        flowing_params: frozenset[int] = frozenset()
        for value in (*arg_values, *(v for _, v in keyword_values)):
            flowing_params |= value.params
        for param in flowing_params:
            self.param_sinks.setdefault(
                param,
                SinkReach(
                    sink=sink,
                    location=self._location(call),
                    chain=(self._hop(call, f"passes it to {sink}"),),
                ),
            )
        if not self.emit:
            return
        for value in tainted:
            self.flows.append(
                TaintFlow(
                    path=str(self.module.path),
                    node=call,
                    source=value.witness.source,
                    sink=sink,
                    trace=(
                        *value.witness.chain,
                        self._hop(call, f"passes it to {sink}"),
                    ),
                )
            )
