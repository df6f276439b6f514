"""Memory-independent subgraph profiling for external-memory-access costs.

For every subgraph the EMA model charges (Sec 4.1.1, 5.1.2):

* loading the weights of every member layer,
* loading the subgraph's input activations (tensors produced outside),
* storing the output activations (tensors consumed outside, or model
  outputs).

Weights are loaded **once** per subgraph only if they can stay cached in
the weight buffer across elementary operations; layers that do not fit are
re-streamed every elementary operation. The choice of output tile size
trades activation footprint (small tiles fit small buffers) against the
number of elementary operations (more operations mean more weight
re-streaming), so the profile precomputes one :class:`TileOption` per
candidate tile size and the memory-dependent evaluator picks the best
feasible one.

:func:`profile_subgraph` is the fast single-pass implementation: one
:class:`~repro.execution.tiling.TilingStructure` derivation prices all
tile candidates — a shape class with a closed form
(:class:`~repro.execution.tiling_batch.LinearTileModel`) solves none and
takes its option table from two dot products — and the per-layer
byte/MAC sums run over the graph's precomputed
:class:`~repro.graphs.arrays.GraphArrays`.
:func:`profile_subgraph_reference` retains the naive implementation
(one full :func:`~repro.execution.tiling.derive_tiling` walk per
candidate, per-node generator sums) as the equivalence oracle — both
produce bit-identical :class:`SubgraphProfile` objects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..errors import TilingError
from ..execution.footprint import activation_footprint
from ..execution.tiling import TilingStructure, derive_tiling
from ..execution.tiling_batch import linear_model, member_max_height
from ..graphs.graph import ComputationGraph

#: Output-row tile sizes stage 1 may choose from (powers of two, as the
#: single-layer mapper would generate).
DEFAULT_TILE_CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True, slots=True)
class TileOption:
    """One candidate output tile size and its memory behaviour."""

    tile_rows: int
    activation_bytes: int
    num_elementary_ops: int


@dataclass(frozen=True, slots=True)
class SubgraphProfile:
    """Everything about a subgraph that does not depend on buffer sizes."""

    members: frozenset[str]
    input_bytes: int
    output_bytes: int
    weight_bytes: int
    macs: int
    member_activation_bytes: int
    layer_weights: tuple[tuple[str, int], ...]
    tile_options: tuple[TileOption, ...]
    #: Footprint of the smallest tile option, materialized at construction
    #: (memory-feasibility tests read it on every repair probe).
    min_activation_bytes: int = -1

    def __post_init__(self) -> None:
        if self.min_activation_bytes < 0:
            object.__setattr__(
                self,
                "min_activation_bytes",
                min(o.activation_bytes for o in self.tile_options),
            )

    @property
    def io_bytes(self) -> int:
        """Activation bytes exchanged with DRAM (inputs plus outputs)."""
        return self.input_bytes + self.output_bytes


def _heaviest_first(item: tuple[str, int]) -> tuple[int, str]:
    """Sort key of ``layer_weights``: heaviest first, then by name."""
    return -item[1], item[0]


def _interface_inputs(graph: ComputationGraph, members: frozenset[str]) -> tuple[str, ...]:
    """External producers whose tensors the subgraph loads from DRAM."""
    seen: list[str] = []
    for name in sorted(members):
        for parent in graph.predecessors(name):
            if parent not in members and parent not in seen:
                seen.append(parent)
    return tuple(sorted(seen))


def _writeback_nodes(graph: ComputationGraph, members: frozenset[str]) -> tuple[str, ...]:
    """Members whose outputs must go back to DRAM.

    A member is written back when some consumer lives outside the subgraph
    or when it is a model output (footnote 3 of the paper).
    """
    outputs = []
    for name in sorted(members):
        succs = graph.successors(name)
        if not succs or any(s not in members for s in succs):
            outputs.append(name)
    return tuple(outputs)


def _select_options(
    structure_options,
    tile_candidates: tuple[int, ...],
    max_height: int,
    stable_after: int | None = None,
) -> list[TileOption]:
    """Shared candidate-selection policy over ``(tile, act, ops)`` rows.

    Candidates larger than every member's output height are skipped after
    one saturating candidate, consecutive duplicates are dropped, and the
    scan stops at the first single-operation schedule (larger tiles only
    cost more memory for no fewer weight reloads). ``stable_after`` — the
    tile size beyond which every output-height cap binds, making the
    scheme constant — lets the fast path stop after the first such
    candidate; later ones would all be dropped as duplicates anyway.
    """
    options: list[TileOption] = []
    for tile_rows in tile_candidates:
        if options and tile_rows > max_height:
            break
        activation_bytes, num_ops = structure_options(tile_rows)
        option = TileOption(
            tile_rows=min(tile_rows, max_height),
            activation_bytes=activation_bytes,
            num_elementary_ops=num_ops,
        )
        previous = options[-1] if options else None
        if previous is None or (
            option.activation_bytes != previous.activation_bytes
            or option.num_elementary_ops != previous.num_elementary_ops
        ):
            options.append(option)
        if option.num_elementary_ops == 1:
            break
        if stable_after is not None and tile_rows >= stable_after:
            break
    return options


def profile_subgraph(
    graph: ComputationGraph,
    members: frozenset[str] | set[str],
    bytes_per_element: int = 1,
    tile_candidates: tuple[int, ...] = DEFAULT_TILE_CANDIDATES,
    structure: TilingStructure | None = None,
) -> SubgraphProfile:
    """Build the memory-independent profile of one subgraph (fast path).

    One :class:`TilingStructure` derivation serves every tile candidate
    (pass ``structure`` to reuse one derived earlier), and all byte/MAC
    totals are sums over ``graph.arrays(bytes_per_element)``. When the
    structure's shape class has a
    :class:`~repro.execution.tiling_batch.LinearTileModel`, the option
    table is its closed form — option ``c`` costs ``A*c + B`` bytes, the
    local row bytes dotted with the model's slope and intercept — and no
    candidate is solved; otherwise the candidates are scanned. A
    :class:`TilingError` from an individual candidate is fatal, since it
    indicates an inconsistent graph rather than a capacity problem.
    """
    members = frozenset(members)
    if structure is None:
        structure = TilingStructure(graph, members)
    arrays = graph.arrays(bytes_per_element)
    succs = graph.topology().succs
    ids = structure.ids
    member_ids = [u for u, inside in zip(ids, structure.is_member) if inside]
    input_ids = [u for u, inside in zip(ids, structure.is_member) if not inside]
    inside = set(member_ids)
    output_ids = [
        u for u in member_ids if not succs[u] or any(v not in inside for v in succs[u])
    ]
    input_bytes = arrays.total(arrays.output_bytes, input_ids)
    output_bytes = arrays.total(arrays.output_bytes, output_ids)
    weight_bytes = arrays.total(arrays.weight_bytes, member_ids)
    macs = arrays.total(arrays.macs, member_ids)
    member_activation_bytes = arrays.total(arrays.output_bytes, member_ids)
    pairs = arrays.layer_weights
    layer_weights = tuple(sorted((pairs[u] for u in member_ids), key=_heaviest_first))

    local_row_bytes = arrays.local_row_bytes(ids)
    model = linear_model(structure, tile_candidates)
    if model is None:
        options = _select_options(
            lambda tile_rows: structure.option(tile_rows, local_row_bytes),
            tile_candidates,
            member_max_height(structure),
            stable_after=structure.saturation,
        )
    else:
        slope = sum(map(operator.mul, local_row_bytes, model.slope))
        intercept = sum(map(operator.mul, local_row_bytes, model.intercept))
        options = [
            TileOption(c, slope * c + intercept, ops)
            for c, ops in zip(model.kept, model.kept_ops)
        ]
    if not options:
        raise TilingError(f"no tile candidates for subgraph {sorted(members)}")
    return SubgraphProfile(
        members=members,
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        weight_bytes=weight_bytes,
        macs=macs,
        member_activation_bytes=member_activation_bytes,
        layer_weights=layer_weights,
        tile_options=tuple(options),
    )


def profile_subgraph_reference(
    graph: ComputationGraph,
    members: frozenset[str] | set[str],
    bytes_per_element: int = 1,
    tile_candidates: tuple[int, ...] = DEFAULT_TILE_CANDIDATES,
) -> SubgraphProfile:
    """Naive reference profiler: one full tiling walk per candidate.

    Retained verbatim from the pre-single-pass pipeline as the
    equivalence oracle for :func:`profile_subgraph` (the two must agree
    bit-for-bit) and as the baseline the evaluator benchmark measures
    speedups against.
    """
    members = frozenset(members)
    # Iterate members in sorted order everywhere: set order is
    # hash-seed dependent, and these reductions must be bit-identical
    # across processes (the docstring's equivalence-oracle contract).
    ordered = sorted(members)
    inputs = _interface_inputs(graph, members)
    outputs = _writeback_nodes(graph, members)
    input_bytes = sum(
        graph.layer(n).output_bytes(bytes_per_element) for n in inputs
    )
    output_bytes = sum(
        graph.layer(n).output_bytes(bytes_per_element) for n in outputs
    )
    weight_bytes = sum(graph.layer(n).weight_bytes for n in ordered)
    macs = sum(graph.layer(n).macs for n in ordered)
    member_activation_bytes = sum(
        graph.layer(n).output_bytes(bytes_per_element) for n in ordered
    )
    layer_weights = tuple(
        sorted(
            ((n, graph.layer(n).weight_bytes) for n in ordered),
            key=lambda item: (-item[1], item[0]),
        )
    )

    max_height = max(graph.layer(n).shape.height for n in ordered)

    def naive_option(tile_rows: int) -> tuple[int, int]:
        tiling = derive_tiling(graph, members, output_tile_rows=tile_rows)
        return (
            activation_footprint(graph, tiling, bytes_per_element),
            tiling.num_elementary_ops,
        )

    options = _select_options(naive_option, tile_candidates, max_height)
    if not options:
        raise TilingError(f"no tile candidates for subgraph {sorted(members)}")
    return SubgraphProfile(
        members=members,
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        weight_bytes=weight_bytes,
        macs=macs,
        member_activation_bytes=member_activation_bytes,
        layer_weights=layer_weights,
        tile_options=tuple(options),
    )


def cached_weight_selection(
    layer_weights: tuple[tuple[str, int], ...], budget_bytes: int
) -> tuple[tuple[str, ...], int]:
    """Greedy weight-caching choice under a byte budget.

    Every cached byte saves the same ``num_ops - 1`` reloads, so the goal
    is simply to maximize cached bytes: take layers largest-first, then
    fill gaps with smaller ones.
    """
    cached: list[str] = []
    cached_bytes = 0
    for name, weight in layer_weights:
        if weight == 0:
            continue
        if cached_bytes + weight <= budget_bytes:
            cached.append(name)
            cached_bytes += weight
    return tuple(cached), cached_bytes
