"""Event-level trace of one subgraph execution (Figs 6 and 7, animated).

The analytic cost model (:mod:`repro.cost`) prices a subgraph from closed
forms; this module *executes* the same subgraph step by step and records
what actually moves:

* per elementary operation, the row ranges every node loads, computes, or
  stores (the Fig 6 memory snapshot),
* DRAM events — input-tensor loads, weight loads (cached weights once,
  uncached weights re-streamed every operation), output stores,
* SIDE-region traffic when 2D tiles make horizontal overlap explicit
  (paths ① and ② of Fig 7),
* the resident window of every node after each operation, giving the true
  peak on-chip occupancy.

:func:`validate_trace` then cross-checks the trace against the analytic
:class:`~repro.cost.evaluator.SubgraphCost`, which is how the test suite
proves the closed forms and the executable semantics agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..config import MemoryConfig
from ..errors import TilingError
from ..execution.footprint import node_footprints
from ..execution.schedule import elementary_schedule
from ..execution.tiling import SubgraphTiling, derive_tiling
from ..graphs.graph import ComputationGraph


class EventKind(Enum):
    """What one trace event moved, and where."""

    LOAD_INPUT = "load_input"  # DRAM -> on-chip (interface tensors)
    LOAD_WEIGHT = "load_weight"  # DRAM -> on-chip (layer weights)
    COMPUTE = "compute"  # PE array writes a node's MAIN region
    STORE_OUTPUT = "store_output"  # on-chip -> DRAM (writeback nodes)
    SIDE_READ = "side_read"  # SIDE -> MAIN reuse (Fig 7 path 1)
    SIDE_WRITE = "side_write"  # MAIN -> SIDE update (Fig 7 path 2)

    @property
    def is_dram(self) -> bool:
        """Whether the event crosses the chip boundary (counts as EMA)."""
        return self in (
            EventKind.LOAD_INPUT,
            EventKind.LOAD_WEIGHT,
            EventKind.STORE_OUTPUT,
        )


@dataclass(frozen=True)
class TraceEvent:
    """One data movement during one elementary operation."""

    op_index: int
    kind: EventKind
    node: str
    num_bytes: int
    rows: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise TilingError(f"event bytes must be non-negative, got {self}")


@dataclass(frozen=True)
class MemorySnapshot:
    """Resident row windows after one elementary operation (Fig 6)."""

    op_index: int
    resident: dict[str, tuple[int, int]]
    occupancy_bytes: int

    def window(self, name: str) -> tuple[int, int]:
        return self.resident[name]


@dataclass(frozen=True)
class SubgraphTrace:
    """The full execution record of one subgraph.

    ``bytes_per_element`` records the element width every event was
    priced at, so downstream consumers (:func:`validate_trace`, the
    renderers) measure against the same unit instead of silently
    assuming one byte.
    """

    members: frozenset[str]
    tile_rows: int
    num_ops: int
    events: tuple[TraceEvent, ...]
    snapshots: tuple[MemorySnapshot, ...]
    cached_weight_nodes: tuple[str, ...]
    bytes_per_element: int = 1

    def bytes_of(self, kind: EventKind) -> int:
        """Total bytes moved by events of one kind."""
        return sum(e.num_bytes for e in self.events if e.kind is kind)

    @property
    def input_load_bytes(self) -> int:
        return self.bytes_of(EventKind.LOAD_INPUT)

    @property
    def weight_load_bytes(self) -> int:
        return self.bytes_of(EventKind.LOAD_WEIGHT)

    @property
    def output_store_bytes(self) -> int:
        return self.bytes_of(EventKind.STORE_OUTPUT)

    @property
    def ema_bytes(self) -> int:
        """External memory access: every byte that crossed the boundary."""
        return sum(e.num_bytes for e in self.events if e.kind.is_dram)

    @property
    def peak_occupancy_bytes(self) -> int:
        """Largest resident activation footprint over the execution."""
        return max((s.occupancy_bytes for s in self.snapshots), default=0)


def _row_bytes(graph: ComputationGraph, name: str, bytes_per_element: int) -> int:
    shape = graph.layer(name).shape
    return shape.width * shape.channels * bytes_per_element


def _writeback_nodes(
    graph: ComputationGraph, members: frozenset[str]
) -> frozenset[str]:
    """Members whose outputs leave the chip (paper footnote 3)."""
    out = set()
    for name in members:
        succs = graph.successors(name)
        if not succs or any(s not in members for s in succs):
            out.add(name)
    return frozenset(out)


def trace_subgraph(
    graph: ComputationGraph,
    members: frozenset[str] | set[str],
    output_tile_rows: int = 1,
    cached_weight_nodes: tuple[str, ...] | None = None,
    bytes_per_element: int = 1,
    tile_width: int | None = None,
    tiling: SubgraphTiling | None = None,
    max_ops: int | None = None,
) -> SubgraphTrace:
    """Execute one subgraph and record every data movement.

    ``cached_weight_nodes`` defaults to *all* weighted members (an
    unlimited weight buffer); pass the cost model's selection to replay
    its weight-caching decision. ``max_ops`` truncates long executions
    for demos; traces meant for validation must run to completion.
    """
    members = frozenset(members)
    tiling = tiling or derive_tiling(graph, members, output_tile_rows)
    if cached_weight_nodes is None:
        cached_weight_nodes = tuple(
            sorted(n for n in members if graph.layer(n).weight_bytes > 0)
        )
    cached = frozenset(cached_weight_nodes)
    writeback = _writeback_nodes(graph, members)
    footprints = node_footprints(graph, tiling, bytes_per_element, tile_width)
    schedule = elementary_schedule(graph, tiling, max_ops=max_ops)

    events: list[TraceEvent] = []
    snapshots: list[MemorySnapshot] = []

    # Cached weights load once, before the first elementary operation.
    for name in sorted(cached):
        weight = graph.layer(name).weight_bytes
        if weight > 0:
            events.append(
                TraceEvent(op_index=0, kind=EventKind.LOAD_WEIGHT,
                           node=name, num_bytes=weight)
            )

    uncached = sorted(
        n for n in members
        if graph.layer(n).weight_bytes > 0 and n not in cached
    )

    for op in schedule:
        for name, node in tiling.nodes.items():
            start, end = op.ranges[name]
            if end <= start:
                continue
            moved = (end - start) * _row_bytes(graph, name, bytes_per_element)
            if node.is_interface_input:
                events.append(
                    TraceEvent(op.index, EventKind.LOAD_INPUT, name,
                               moved, (start, end))
                )
            else:
                events.append(
                    TraceEvent(op.index, EventKind.COMPUTE, name,
                               moved, (start, end))
                )
                if name in writeback:
                    events.append(
                        TraceEvent(op.index, EventKind.STORE_OUTPUT, name,
                                   moved, (start, end))
                    )
            # 2D tiles exchange the horizontal overlap with the SIDE
            # region once per operation (Fig 7 paths 1 and 2).
            side = footprints[name].side_bytes
            if side > 0:
                events.append(TraceEvent(op.index, EventKind.SIDE_READ, name, side))
                events.append(TraceEvent(op.index, EventKind.SIDE_WRITE, name, side))
        # Uncached weights re-stream on every elementary operation.
        for name in uncached:
            events.append(
                TraceEvent(op.index, EventKind.LOAD_WEIGHT, name,
                           graph.layer(name).weight_bytes)
            )

        resident: dict[str, tuple[int, int]] = {}
        occupancy = 0
        for name, node in tiling.nodes.items():
            _start, end = op.ranges[name]
            low = max(0, end - node.tile_rows)
            resident[name] = (low, end)
            occupancy += (end - low) * _row_bytes(graph, name, bytes_per_element)
            occupancy += footprints[name].side_bytes
        snapshots.append(
            MemorySnapshot(op_index=op.index, resident=resident,
                           occupancy_bytes=occupancy)
        )

    return SubgraphTrace(
        members=members,
        tile_rows=tiling.output_tile_rows,
        num_ops=len(schedule),
        events=tuple(events),
        snapshots=tuple(snapshots),
        cached_weight_nodes=tuple(sorted(cached)),
        bytes_per_element=bytes_per_element,
    )


def validate_trace(
    trace: SubgraphTrace,
    graph: ComputationGraph,
    memory: MemoryConfig | None = None,
    analytic_ema_bytes: int | None = None,
    analytic_footprint_bytes: int | None = None,
) -> list[str]:
    """Cross-check a completed trace against the analytic model.

    Returns a list of human-readable inconsistencies (empty = clean):

    * every interface tensor must be loaded exactly once, every writeback
      tensor stored exactly once,
    * the trace's EMA must not exceed the analytic EMA (the closed form
      charges uncached weights for the full operation count, while the
      warm-up operation can cover several), and activation IO must match
      exactly,
    * peak occupancy must not exceed the analytic footprint, nor the
      activation capacity when ``memory`` is given.
    """
    problems: list[str] = []
    loads: dict[str, int] = {}
    stores: dict[str, int] = {}
    for event in trace.events:
        if event.kind is EventKind.LOAD_INPUT:
            loads[event.node] = loads.get(event.node, 0) + event.num_bytes
        elif event.kind is EventKind.STORE_OUTPUT:
            stores[event.node] = stores.get(event.node, 0) + event.num_bytes

    # Tensor sizes must be measured at the trace's own element width; an
    # independent 1-byte default here flagged every bytes_per_element>1
    # trace (or worse, blessed a trace priced at the wrong width).
    byte = trace.bytes_per_element
    for name, total in loads.items():
        expected = graph.layer(name).output_bytes(byte)
        if total != expected:
            problems.append(
                f"input {name!r} loaded {total} bytes, tensor is {expected}"
            )
    for name, total in stores.items():
        expected = graph.layer(name).output_bytes(byte)
        if total != expected:
            problems.append(
                f"output {name!r} stored {total} bytes, tensor is {expected}"
            )

    if analytic_ema_bytes is not None:
        if trace.ema_bytes > analytic_ema_bytes:
            problems.append(
                f"trace EMA {trace.ema_bytes} exceeds analytic {analytic_ema_bytes}"
            )
        activation_io = trace.input_load_bytes + trace.output_store_bytes
        analytic_weights = analytic_ema_bytes - activation_io
        if analytic_weights < trace.weight_load_bytes:
            problems.append(
                f"analytic weight EMA {analytic_weights} fell below the "
                f"traced weight traffic {trace.weight_load_bytes}"
            )
    if analytic_footprint_bytes is not None:
        if trace.peak_occupancy_bytes > analytic_footprint_bytes:
            problems.append(
                f"peak occupancy {trace.peak_occupancy_bytes} exceeds analytic "
                f"footprint {analytic_footprint_bytes}"
            )
    if memory is not None:
        if trace.peak_occupancy_bytes > memory.activation_capacity:
            problems.append(
                f"peak occupancy {trace.peak_occupancy_bytes} exceeds the "
                f"{memory.activation_capacity}-byte activation capacity"
            )
    return problems


def render_snapshot(
    snapshot: MemorySnapshot, graph: ComputationGraph, width: int = 40
) -> str:
    """ASCII rendering of one memory snapshot, one bar per node (Fig 6)."""
    lines = [f"elementary op #{snapshot.op_index}"]
    for name in sorted(snapshot.resident):
        low, high = snapshot.resident[name]
        height = graph.layer(name).shape.height
        scale = width / max(1, height)
        left = int(low * scale)
        body = max(1, int((high - low) * scale)) if high > low else 0
        bar = " " * left + "#" * body
        lines.append(f"  {name:>12} [{low:>4}:{high:<4}] |{bar:<{width}}|")
    lines.append(f"  occupancy: {snapshot.occupancy_bytes} bytes")
    return "\n".join(lines)


def render_trace(
    trace: SubgraphTrace,
    graph: ComputationGraph,
    max_snapshots: int = 4,
    width: int = 40,
) -> str:
    """ASCII rendering of the first snapshots plus the traffic summary."""
    parts = [
        f"subgraph of {len(trace.members)} layers, tile={trace.tile_rows} rows, "
        f"{trace.num_ops} elementary ops"
    ]
    for snapshot in trace.snapshots[:max_snapshots]:
        parts.append(render_snapshot(snapshot, graph, width))
    if trace.num_ops > max_snapshots:
        parts.append(f"  ... {trace.num_ops - max_snapshots} more ops")
    parts.append(
        f"DRAM: in={trace.input_load_bytes}B  weights={trace.weight_load_bytes}B  "
        f"out={trace.output_store_bytes}B  (EMA {trace.ema_bytes}B); "
        f"peak on-chip {trace.peak_occupancy_bytes}B"
    )
    return "\n".join(parts)
