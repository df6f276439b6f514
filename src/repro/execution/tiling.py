"""Consumption-centric subgraph tiling — the paper's three-stage flow (Sec 3.1).

Given a subgraph (a set of layers plus the external producers feeding it),
the flow determines for every node ``u``:

* ``delta`` — the update offset Δ(u): how many new rows of ``u``'s output
  are materialized per memory update,
* ``tile_rows`` — the allocated tile size x(u): how many rows of ``u``'s
  output must stay resident so every consumer can read its window,
* ``upd_num`` — how many Δ-updates of ``u`` one *subgraph elementary
  operation* performs.

Stage 1 fixes Δ = x = ``output_tile_rows`` for the subgraph's output
nodes. Stage 2 walks the subgraph in reverse topological order, aligning a
producer's offset to all of its consumers with a least-common-multiple:
``Δ(u) = lcm over children v of Δ(v) * s(v)``, and sizing the tile as
``x(u) = max over v of f_v(Δ(u) / s(v))`` with ``f_v(x) = F(v) + (x-1) * s(v)``.
Stage 3 balances production and consumption — for each edge,
``upd_num(u) * Δ(u) = upd_num(v) * Δ(v) * s(v)`` — and takes the co-prime
minimal integer solution.

Rows are tracked as :class:`fractions.Fraction` internally because
``full_input`` consumers (attention, flatten, global pooling) induce
rational consumption ratios; results are materialized as integers capped
at each tensor's real height.

Two implementations coexist:

* :func:`derive_tiling` — the straightforward reference implementation,
  re-deriving everything from the graph on every call. It is retained
  verbatim as the equivalence oracle for the fast path and for one-shot
  callers (CLI ``tiling``/``trace``).
* :class:`TilingStructure` — the single-pass engine used by the
  evaluation hot path. It derives the subgraph's *structure* (local
  adjacency, consumption ratios, window offsets, production/consumption
  rate relations) exactly once — over graph ids, from the per-graph
  :class:`TilingTable` — solves the stages at tile size 1, and
  re-prices further tile candidates by exact linear rescaling (LCMs over
  positive rationals scale linearly, and the rate vector is invariant
  under that scaling) whenever no output-height cap binds — falling back
  to a full, still graph-access-free, numeric walk when one does. The
  results are bit-identical to :func:`derive_tiling` for every tile size
  (enforced by ``tests/execution/test_tiling_structure.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from ..errors import TilingError
from ..graphs.graph import ComputationGraph


@dataclass(frozen=True)
class NodeTiling:
    """Derived execution parameters for one node of a subgraph."""

    name: str
    delta: int
    tile_rows: int
    upd_num: int
    is_interface_input: bool
    is_output: bool

    @property
    def rows_per_op(self) -> int:
        """Rows of this node's output advanced per elementary operation."""
        return self.delta * self.upd_num


@dataclass(frozen=True)
class SubgraphTiling:
    """The complete execution scheme of one subgraph."""

    nodes: dict[str, NodeTiling]
    output_tile_rows: int
    num_elementary_ops: int

    def __getitem__(self, name: str) -> NodeTiling:
        return self.nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    @property
    def interface_inputs(self) -> tuple[str, ...]:
        """Names of external producers feeding the subgraph."""
        return tuple(n for n, t in self.nodes.items() if t.is_interface_input)

    @property
    def members(self) -> tuple[str, ...]:
        """Names of the subgraph's own layers."""
        return tuple(n for n, t in self.nodes.items() if not t.is_interface_input)

    @property
    def output_nodes(self) -> tuple[str, ...]:
        """Members whose results leave the subgraph."""
        return tuple(
            n for n, t in self.nodes.items() if t.is_output and not t.is_interface_input
        )


def _lcm_rows(values: list) -> "int | Fraction":
    """Least common multiple over positive ints/rationals.

    Integer inputs stay on the fast ``math.lcm`` path; any
    :class:`Fraction` (from a ``full_input`` consumer) switches to the
    rational generalization ``lcm(nums) / gcd(dens)``.
    """
    if all(isinstance(v, int) for v in values):
        return reduce(math.lcm, values)
    fractions = [Fraction(v) for v in values]
    numerator = reduce(math.lcm, (f.numerator for f in fractions))
    denominator = reduce(math.gcd, (f.denominator for f in fractions))
    return Fraction(numerator, denominator)


def _consumption_ratio(graph: ComputationGraph, producer: str, consumer: str):
    """Input rows of ``producer`` consumed per output row of ``consumer``.

    Ordinary windows consume ``stride`` rows per output row (an int);
    ``full_input`` ops consume the producer's whole tensor over their
    whole output (a rational).
    """
    spec = graph.layer(consumer)
    if spec.full_input:
        in_height = graph.layer(producer).shape.height
        return Fraction(in_height, spec.shape.height)
    if spec.upsample_factor > 1:
        # One producer row yields ``factor`` consumer rows.
        return Fraction(1, spec.upsample_factor)
    return spec.stride


def _local_children(
    graph: ComputationGraph, members: frozenset[str]
) -> dict[str, tuple[str, ...]]:
    """Map every relevant node to its consumers *inside* the subgraph."""
    children: dict[str, tuple[str, ...]] = {}
    for name in sorted(members):
        children[name] = tuple(s for s in graph.successors(name) if s in members)
        for parent in graph.predecessors(name):
            if parent not in members and parent not in children:
                children[parent] = tuple(
                    s for s in graph.successors(parent) if s in members
                )
    # Interface inputs may have been registered before all members were seen;
    # recompute them now that membership is fixed.
    for name in list(children):
        if name not in members:
            children[name] = tuple(s for s in graph.successors(name) if s in members)
    return children


def derive_tiling(
    graph: ComputationGraph,
    members: frozenset[str] | set[str],
    output_tile_rows: int = 1,
) -> SubgraphTiling:
    """Derive the consumption-centric execution scheme for a subgraph.

    ``members`` are the layers computed by the subgraph; external producers
    (earlier subgraphs or model inputs) are added automatically as
    interface inputs. Raises :class:`TilingError` if the subgraph is empty
    or the production/consumption balance has no consistent solution
    (which indicates a malformed graph).
    """
    members = frozenset(members)
    if not members:
        raise TilingError("cannot derive tiling for an empty subgraph")
    if output_tile_rows <= 0:
        raise TilingError(f"output tile rows must be positive, got {output_tile_rows}")
    for name in sorted(members):
        if graph.layer(name).is_input:
            raise TilingError(f"model input {name!r} cannot be a subgraph member")

    children = _local_children(graph, members)
    topo = [n for n in graph.topological_order() if n in children]

    # Stage 2 (with stage 1 seeding the recursion): reverse topological
    # pass. Values stay plain ints unless a full_input consumer introduces
    # a rational ratio.
    delta: dict[str, "int | Fraction"] = {}
    tile: dict[str, "int | Fraction"] = {}
    for name in reversed(topo):
        height = graph.layer(name).shape.height
        kids = children[name]
        if not kids:
            rows = min(output_tile_rows, height)
            delta[name] = rows
            tile[name] = rows
            continue
        offsets = []
        requirements = []
        for kid in kids:
            spec = graph.layer(kid)
            if spec.streaming:
                # Streaming reductions consume row by row into an
                # accumulator: the producer advances at its own chunk
                # granularity and nothing has to stay resident.
                offsets.append(delta[kid])
                continue
            ratio = _consumption_ratio(graph, name, kid)
            offsets.append(delta[kid] * ratio)
            if spec.full_input:
                requirements.append(height)
        # The step stays uncapped here so the balance algebra remains exact
        # on reconvergent paths; materialization caps rows at the tensor
        # height at the very end.
        step = _lcm_rows(offsets)
        for kid in kids:
            spec = graph.layer(kid)
            if spec.streaming:
                requirements.append(step)
                continue
            if spec.full_input:
                continue
            if spec.upsample_factor > 1:
                # ``step`` producer rows replicate into ``step * factor``
                # consumer rows; the window never exceeds the step itself.
                requirements.append(step)
                continue
            # f_v(step / s) = F + (step/s - 1) * s = F + step - s.
            requirements.append(spec.kernel + step - spec.stride)
        delta[name] = step
        tile[name] = min(max(requirements), height)

    # Stage 3: solve the production/consumption balance. Each edge (u, v)
    # imposes rate(u) * Δ(u) = rate(v) * Δ(v) * ratio(u, v); the constraint
    # graph is solved per weakly-connected component by BFS from a root
    # pinned to 1, deriving neighbors in both directions, then verified.
    neighbors: dict[str, list[tuple[str, Fraction]]] = {n: [] for n in topo}
    for name in topo:
        for kid in children[name]:
            ratio = _consumption_ratio(graph, name, kid)
            # rate(kid) = rate(name) * factor ; rate(name) = rate(kid) / factor
            factor = Fraction(delta[name]) / (delta[kid] * ratio)
            neighbors[name].append((kid, factor))
            neighbors[kid].append((name, 1 / factor))
    rate: dict[str, Fraction] = {}
    for root in topo:
        if root in rate:
            continue
        rate[root] = Fraction(1)
        queue = [root]
        while queue:
            node = queue.pop()
            for other, factor in neighbors[node]:
                implied = rate[node] * factor
                existing = rate.get(other)
                if existing is None:
                    rate[other] = implied
                    queue.append(other)
                elif existing != implied:
                    raise TilingError(
                        f"inconsistent production/consumption balance at "
                        f"{other!r}: {existing} vs {implied}"
                    )

    # Normalize rates to the minimal co-prime positive integer vector.
    denominator = reduce(math.lcm, (r.denominator for r in rate.values()))
    scaled = [r * denominator for r in rate.values()]
    common = reduce(math.gcd, (int(s) for s in scaled))
    upd_num = {
        name: int(rate[name] * denominator) // common for name in rate
    }

    node_tilings: dict[str, NodeTiling] = {}
    num_ops = 1
    for name in topo:
        height = graph.layer(name).shape.height
        is_member = name in members
        is_output = is_member and not children[name]
        if is_output:
            ops = math.ceil(height / (upd_num[name] * delta[name]))
            num_ops = max(num_ops, ops)
        d = min(max(1, math.ceil(delta[name])), height)
        x = min(max(d, math.ceil(tile[name])), height)
        node_tilings[name] = NodeTiling(
            name=name,
            delta=d,
            tile_rows=x,
            upd_num=upd_num[name],
            is_interface_input=not is_member,
            is_output=is_output,
        )

    return SubgraphTiling(
        nodes=node_tilings,
        output_tile_rows=output_tile_rows,
        num_elementary_ops=num_ops,
    )


# ---------------------------------------------------------------------------
# Single-pass tiling: derive the structure once, price candidates cheaply.
# ---------------------------------------------------------------------------

#: Consumer kinds, in the priority order the reference walk checks them.
_STREAMING, _FULL, _UPSAMPLE, _WINDOW = 0, 1, 2, 3

#: Tuples a :class:`TilingTable` interns before it starts over (about
#: 10 MB at ~150 B per entry). Structures keep the copies they hold, so
#: starting over only stops later structures sharing with earlier ones.
_SHARED_SIZE = 65_536


class TilingTable:
    """Per-graph, id-indexed layer and edge facts every structure reads.

    Ids are :class:`~repro.graphs.topology.GraphTopology` ids (topological
    positions). Built once per graph, on the first
    :class:`TilingStructure` build (``graph.tiling_table()``), so a
    structure build does no name lookups and no whole-graph scan:

    * ``heights[i]`` — the output height of layer ``i``;
    * ``consumers[i]`` — per consumer ``v`` of ``i``, in successor order,
      ``(v, kind, stage2_ratio, stage3_ratio, offset)``: the consumer
      kind, the consumption ratios the reference walk derives, and the
      edge's window requirement offset (``kernel - stride`` for a
      window, 0 for streaming and upsample, ``None`` for full input).

    :meth:`share` interns the small tuples structures hold (child-info
    entries and per-node child tuples), so the structures of one graph
    reference one copy of each instead of holding their own. The
    interned set grows with the distinct local shapes a process builds,
    up to :data:`_SHARED_SIZE` entries.
    """

    __slots__ = ("topology", "heights", "consumers", "_shared")

    def __init__(self, graph: ComputationGraph) -> None:
        topology = graph.topology()
        names = topology.names
        self.topology = topology
        specs = [graph.layer(name) for name in names]
        self.heights: tuple[int, ...] = tuple(spec.shape.height for spec in specs)
        consumers = []
        for u, name in enumerate(names):
            row = []
            for v in topology.succs[u]:
                spec = specs[v]
                ratio = _consumption_ratio(graph, name, names[v])
                if spec.streaming:
                    row.append((v, _STREAMING, None, ratio, 0))
                elif spec.full_input:
                    row.append((v, _FULL, ratio, ratio, None))
                elif spec.upsample_factor > 1:
                    row.append((v, _UPSAMPLE, ratio, ratio, 0))
                else:
                    row.append((v, _WINDOW, ratio, ratio, spec.kernel - spec.stride))
            consumers.append(tuple(row))
        self.consumers: tuple[tuple[tuple, ...], ...] = tuple(consumers)
        self._shared: dict[tuple, tuple] = {}

    def share(self, value: tuple) -> tuple:
        """The graph's one copy of an immutable tuple equal to ``value``."""
        shared = self._shared
        if len(shared) >= _SHARED_SIZE:
            shared.clear()
        return shared.setdefault(value, value)


def _reject_members(graph: ComputationGraph, members: frozenset[str]) -> None:
    """Raise what :func:`derive_tiling` raises for an invalid member set."""
    if not members:
        raise TilingError("cannot derive tiling for an empty subgraph")
    for name in sorted(members):
        if graph.layer(name).is_input:
            raise TilingError(f"model input {name!r} cannot be a subgraph member")


class TilingStructure:
    """The tile-size-independent structure of one subgraph's tiling.

    Construction is the only graph access. It lists the local nodes —
    the members and their interface inputs, as ascending graph ids,
    which is a topological order — and reads their heights, local
    children, consumer kinds, window offsets and consumption ratios from
    the graph's :class:`TilingTable`. It then solves stages 1-3 at
    ``output_tile_rows = 1``, which also validates the
    production/consumption balance, raising :class:`TilingError` exactly
    where :func:`derive_tiling` would (as it does for an empty set, an
    unknown layer or a model input as a member).

    Pricing a tile candidate ``t`` afterwards touches no graph state:

    * ``t <= scale_limit`` (no output-height cap binds): the stage-2
      offsets are ``t`` times the base solution — exactly, because the
      LCM over positive rationals is linear under common scaling — and
      the stage-3 rate vector is scale-invariant, so only the per-node
      window requirements and the elementary-operation count are
      recomputed (O(nodes) integer arithmetic).
    * ``t > scale_limit``: a full numeric walk over the precomputed
      structure (still no graph access, no layer lookups).

    Both paths reproduce :func:`derive_tiling` bit-for-bit. Per-node
    fields are tuples, which :attr:`signature` references rather than
    copies, and child-info tuples are the table's shared copies, so a
    structure kept in a long-lived store stays small.
    """

    __slots__ = (
        "members",
        "ids",
        "heights",
        "is_member",
        "kids_info",
        "aff_max",
        "full_req",
        "leaves",
        "scale_limit",
        "_table",
        "_saturation",
        "_saturated",
        "base",
        "_signature",
    )

    def __init__(
        self, graph: ComputationGraph, members: frozenset[str] | set[str]
    ) -> None:
        members = frozenset(members)
        table = graph.tiling_table()
        topology = table.topology
        index = topology.index
        try:
            member_ids = sorted(index[name] for name in members)
        except KeyError:
            member_ids = []
        compute = topology.compute_mask
        if not member_ids or not all(compute[i] for i in member_ids):
            _reject_members(graph, members)
        self.members = members
        self._table = table
        inside = set(member_ids)
        local = set(member_ids)
        preds = topology.preds
        for i in member_ids:
            local.update(preds[i])
        ids = tuple(sorted(local))
        position = {u: k for k, u in enumerate(ids)}
        all_heights = table.heights
        consumers = table.consumers
        share = table.share

        #: Graph ids of the local nodes, ascending (a topological order).
        self.ids: tuple[int, ...] = ids
        self.heights: tuple[int, ...] = tuple(all_heights[u] for u in ids)
        self.is_member: tuple[bool, ...] = tuple(u in inside for u in ids)
        # Per node: ((kid_local, kind, stage2_ratio, stage3_ratio), ...).
        kids_info: list[tuple[tuple, ...]] = []
        aff_max: list[int | None] = []
        full_req: list[int | None] = []
        for u in ids:
            infos = []
            affine: int | None = None
            full: int | None = None
            for v, kind, ratio2, ratio3, offset in consumers[u]:
                if v not in inside:
                    continue
                infos.append(share((position[v], kind, ratio2, ratio3)))
                if offset is None:
                    full = all_heights[u]
                elif affine is None or offset > affine:
                    affine = offset
            kids_info.append(share(tuple(infos)))
            aff_max.append(affine)
            full_req.append(full)
        self.kids_info: tuple[tuple[tuple, ...], ...] = tuple(kids_info)
        self.aff_max: tuple[int | None, ...] = tuple(aff_max)
        self.full_req: tuple[int | None, ...] = tuple(full_req)
        # Interface inputs always have member consumers, so every leaf is
        # a member output node; its height is where the stage-1 cap binds.
        self.leaves: tuple[int, ...] = tuple(
            k for k, info in enumerate(kids_info) if not info
        )
        leaf_heights = [self.heights[k] for k in self.leaves]
        self.scale_limit: int = min(leaf_heights)
        # Above every leaf height the stage-1 caps all bind, so the whole
        # solution is constant in the tile size; solved lazily, once.
        self._saturation: int = max(leaf_heights)
        self._saturated: tuple[list, list, list[int]] | None = None
        self._signature: tuple | None = None
        # The tile-size-1 ``(delta, tile, upd)`` solution; solving it
        # also validates the production/consumption balance.
        delta, tile = self._solve_deltas(1)
        self.base: tuple[list, list, list[int]] = (
            delta, tile, self._solve_rates(delta)
        )

    @property
    def names(self) -> tuple[str, ...]:
        """Layer names of the local nodes, in :attr:`ids` order."""
        names = self._table.topology.names
        return tuple(names[u] for u in self.ids)

    # ------------------------------------------------------------------
    @property
    def signature(self) -> tuple:
        """Shape-class key: everything the tile-size solves depend on.

        Two structures with equal signatures have identical base
        solutions, option tables (up to the per-row byte widths, which
        only enter the final footprint dot product), saturation points,
        and failure behaviour; node names and heights of non-local
        layers do not participate.
        """
        sig = self._signature
        if sig is None:
            sig = (
                self.heights,
                self.is_member,
                self.kids_info,
                self.aff_max,
                self.full_req,
            )
            self._signature = sig
        return sig

    # ------------------------------------------------------------------
    def _solve_deltas(self, t: int) -> tuple[list, list]:
        """Stages 1+2: the reverse-topological offset/window walk."""
        count = len(self.heights)
        delta: list = [None] * count
        tile: list = [None] * count
        heights = self.heights
        for i in range(count - 1, -1, -1):
            height = heights[i]
            info = self.kids_info[i]
            if not info:
                rows = min(t, height)
                delta[i] = rows
                tile[i] = rows
                continue
            offsets = [
                delta[k] if kind == _STREAMING else delta[k] * ratio2
                for k, kind, ratio2, _ in info
            ]
            step = _lcm_rows(offsets)
            delta[i] = step
            affine = self.aff_max[i]
            full = self.full_req[i]
            if affine is None:
                requirement = full
            elif full is None:
                requirement = step + affine
            else:
                requirement = max(step + affine, full)
            tile[i] = min(requirement, height)
        return delta, tile

    def _solve_rates(self, delta: list) -> list[int]:
        """Stage 3: minimal co-prime production/consumption rates."""
        count = len(self.heights)
        neighbors: list[list[tuple[int, object]]] = [[] for _ in range(count)]
        for i in range(count):
            di = delta[i]
            for k, _kind, _r2, ratio3 in self.kids_info[i]:
                consumed = delta[k] * ratio3
                # Pure-integer edges (the common case for conv nets) stay
                # on int arithmetic; anything rational drops to Fraction.
                if type(di) is int and type(consumed) is int:
                    if di % consumed == 0:
                        factor = di // consumed
                    else:
                        factor = Fraction(di, consumed)
                else:
                    factor = Fraction(di) / consumed
                neighbors[i].append((k, factor))
                inverse = (
                    1 if factor == 1 else
                    Fraction(1, factor) if type(factor) is int else 1 / factor
                )
                neighbors[k].append((i, inverse))
        rate: list = [None] * count
        all_int = True
        for root in range(count):
            if rate[root] is not None:
                continue
            rate[root] = 1
            queue = [root]
            while queue:
                node = queue.pop()
                for other, factor in neighbors[node]:
                    implied = rate[node] * factor
                    existing = rate[other]
                    if existing is None:
                        if type(implied) is not int:
                            all_int = False
                        rate[other] = implied
                        queue.append(other)
                    elif existing != implied:
                        raise TilingError(
                            f"inconsistent production/consumption balance at "
                            f"{self._table.topology.names[self.ids[other]]!r}: "
                            f"{existing} vs {implied}"
                        )
        if all_int:
            # Every component's root is pinned to 1, so the integer rate
            # vector is already minimal co-prime: gcd must divide 1.
            return rate
        denominator = reduce(
            math.lcm,
            (r.denominator if type(r) is Fraction else 1 for r in rate),
        )
        common = reduce(math.gcd, (int(r * denominator) for r in rate))
        return [int(r * denominator) // common for r in rate]

    # ------------------------------------------------------------------
    def solve(self, output_tile_rows: int) -> tuple[list, list, list[int]]:
        """Uncapped ``(delta, tile, upd_num)`` vectors for one tile size."""
        if output_tile_rows <= 0:
            raise TilingError(
                f"output tile rows must be positive, got {output_tile_rows}"
            )
        t = output_tile_rows
        if t == 1:
            return self.base
        if t > self.scale_limit:
            if t >= self._saturation:
                if self._saturated is None:
                    delta, tile = self._solve_deltas(self._saturation)
                    self._saturated = (delta, tile, self._solve_rates(delta))
                return self._saturated
            delta, tile = self._solve_deltas(t)
            return delta, tile, self._solve_rates(delta)
        # Exact rescaling: no leaf cap binds, so every stage-2 value is t
        # times the base solution and the stage-3 rates are unchanged.
        base_delta, _, base_upd = self.base
        delta = [d * t for d in base_delta]
        tile: list = [None] * len(delta)
        for i, info in enumerate(self.kids_info):
            if not info:
                tile[i] = delta[i]
                continue
            step = delta[i]
            affine = self.aff_max[i]
            full = self.full_req[i]
            if affine is None:
                requirement = full
            elif full is None:
                requirement = step + affine
            else:
                requirement = max(step + affine, full)
            tile[i] = min(requirement, self.heights[i])
        return delta, tile, base_upd

    @property
    def saturation(self) -> int:
        """Tile size beyond which the solution is constant (caps bind)."""
        return self._saturation

    def _num_ops(self, delta: list, upd: list[int]) -> int:
        ops = 1
        for i in self.leaves:
            ops = max(ops, math.ceil(self.heights[i] / (upd[i] * delta[i])))
        return ops

    def option(
        self, output_tile_rows: int, row_bytes: Sequence[int]
    ) -> tuple[int, int]:
        """``(activation_bytes, num_elementary_ops)`` for one candidate.

        ``row_bytes`` gives each local node's bytes per output row (in
        :attr:`names` order). Equals ``activation_footprint`` of the full
        :meth:`tiling` without materializing any :class:`NodeTiling`.
        """
        delta, tile, upd = self.solve(output_tile_rows)
        heights = self.heights
        footprint = 0
        for i, height in enumerate(heights):
            d = min(max(1, math.ceil(delta[i])), height)
            x = min(max(d, math.ceil(tile[i])), height)
            footprint += x * row_bytes[i]
        return footprint, self._num_ops(delta, upd)

    def tiling(self, output_tile_rows: int) -> SubgraphTiling:
        """Materialize the full scheme (bit-identical to derive_tiling)."""
        delta, tile, upd = self.solve(output_tile_rows)
        node_tilings: dict[str, NodeTiling] = {}
        for i, name in enumerate(self.names):
            height = self.heights[i]
            is_member = self.is_member[i]
            d = min(max(1, math.ceil(delta[i])), height)
            x = min(max(d, math.ceil(tile[i])), height)
            node_tilings[name] = NodeTiling(
                name=name,
                delta=d,
                tile_rows=x,
                upd_num=upd[i],
                is_interface_input=not is_member,
                is_output=is_member and not self.kids_info[i],
            )
        return SubgraphTiling(
            nodes=node_tilings,
            output_tile_rows=output_tile_rows,
            num_elementary_ops=self._num_ops(delta, upd),
        )
