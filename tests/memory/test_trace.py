"""Tests for the event-level subgraph trace simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.config import AcceleratorConfig, MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.errors import ConfigError, TilingError
from repro.graphs.graph import ComputationGraph
from repro.memory.trace import (
    EventKind,
    TraceEvent,
    render_snapshot,
    render_trace,
    trace_subgraph,
    validate_trace,
)
from repro.units import kb, mb

from ..conftest import random_dags


def compute_members(graph: ComputationGraph) -> frozenset[str]:
    return frozenset(
        n for n in graph.topological_order() if not graph.layer(n).is_input
    )


class TestTraceEvents:
    def test_interface_inputs_load_full_tensor_once(self, chain_graph):
        trace = trace_subgraph(chain_graph, compute_members(chain_graph))
        loaded = trace.input_load_bytes
        assert loaded == chain_graph.layer("in").output_bytes()

    def test_writeback_stores_full_tensor(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members)
        # Only the last conv leaves the subgraph.
        assert trace.output_store_bytes == chain_graph.layer("conv4").output_bytes()

    def test_interior_nodes_never_touch_dram(self, chain_graph):
        trace = trace_subgraph(chain_graph, compute_members(chain_graph))
        dram_nodes = {
            e.node for e in trace.events
            if e.kind in (EventKind.LOAD_INPUT, EventKind.STORE_OUTPUT)
        }
        assert dram_nodes == {"in", "conv4"}

    def test_cached_weights_load_once(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members)  # all cached by default
        weight_events = [e for e in trace.events if e.kind is EventKind.LOAD_WEIGHT]
        assert len(weight_events) == 4
        total = sum(chain_graph.layer(n).weight_bytes for n in members)
        assert trace.weight_load_bytes == total

    def test_uncached_weights_restream_every_op(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members, cached_weight_nodes=())
        weight_events = [e for e in trace.events if e.kind is EventKind.LOAD_WEIGHT]
        assert len(weight_events) == 4 * trace.num_ops
        per_op = sum(chain_graph.layer(n).weight_bytes for n in members)
        assert trace.weight_load_bytes == per_op * trace.num_ops

    def test_partial_caching_splits_traffic(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(
            chain_graph, members, cached_weight_nodes=("conv1",)
        )
        cached = chain_graph.layer("conv1").weight_bytes
        uncached = sum(chain_graph.layer(n).weight_bytes
                       for n in members if n != "conv1")
        assert trace.weight_load_bytes == cached + uncached * trace.num_ops

    def test_subgraph_split_reloads_intermediate(self, chain_graph):
        whole = trace_subgraph(chain_graph, compute_members(chain_graph))
        first = trace_subgraph(chain_graph, {"conv1", "conv2"})
        second = trace_subgraph(chain_graph, {"conv3", "conv4"})
        split_io = (first.input_load_bytes + first.output_store_bytes
                    + second.input_load_bytes + second.output_store_bytes)
        whole_io = whole.input_load_bytes + whole.output_store_bytes
        # The conv2 tensor crosses DRAM twice when the chain is split.
        assert split_io == whole_io + 2 * chain_graph.layer("conv2").output_bytes()

    def test_side_events_only_with_2d_tiles(self, chain_graph):
        members = compute_members(chain_graph)
        stripes = trace_subgraph(chain_graph, members, output_tile_rows=4)
        assert stripes.bytes_of(EventKind.SIDE_READ) == 0
        tiled = trace_subgraph(
            chain_graph, members, output_tile_rows=4, tile_width=8
        )
        assert tiled.bytes_of(EventKind.SIDE_READ) > 0
        assert (tiled.bytes_of(EventKind.SIDE_READ)
                == tiled.bytes_of(EventKind.SIDE_WRITE))

    def test_side_traffic_never_counts_as_ema(self, chain_graph):
        members = compute_members(chain_graph)
        tiled = trace_subgraph(
            chain_graph, members, output_tile_rows=4, tile_width=8
        )
        dram = (tiled.input_load_bytes + tiled.weight_load_bytes
                + tiled.output_store_bytes)
        assert tiled.ema_bytes == dram

    def test_negative_event_bytes_rejected(self):
        with pytest.raises(TilingError):
            TraceEvent(op_index=0, kind=EventKind.COMPUTE, node="x", num_bytes=-1)

    def test_max_ops_truncates(self, chain_graph):
        full = trace_subgraph(chain_graph, compute_members(chain_graph))
        short = trace_subgraph(
            chain_graph, compute_members(chain_graph), max_ops=2
        )
        assert short.num_ops == min(2, full.num_ops)
        assert short.num_ops < full.num_ops


class TestSnapshots:
    def test_resident_window_is_tile_bounded(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members, output_tile_rows=2)
        from repro.execution.tiling import derive_tiling

        tiling = derive_tiling(chain_graph, members, 2)
        for snapshot in trace.snapshots:
            for name, (low, high) in snapshot.resident.items():
                assert 0 <= low <= high
                assert high - low <= tiling[name].tile_rows

    def test_windows_advance_monotonically(self, diamond_graph):
        members = compute_members(diamond_graph)
        trace = trace_subgraph(diamond_graph, members, output_tile_rows=2)
        for name in trace.snapshots[0].resident:
            highs = [s.resident[name][1] for s in trace.snapshots]
            assert highs == sorted(highs)

    def test_final_snapshot_reaches_tensor_height(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members, output_tile_rows=2)
        last = trace.snapshots[-1]
        for name, (_low, high) in last.resident.items():
            assert high == chain_graph.layer(name).shape.height

    def test_occupancy_positive_and_bounded(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members, output_tile_rows=2)
        total_bytes = sum(
            chain_graph.layer(n).output_bytes() for n in trace.snapshots[0].resident
        )
        for snapshot in trace.snapshots:
            assert 0 < snapshot.occupancy_bytes <= total_bytes


class TestValidation:
    def test_clean_trace_validates(self, chain_graph):
        members = compute_members(chain_graph)
        memory = MemoryConfig.separate(mb(1), mb(2))
        evaluator = Evaluator(chain_graph)
        cost = evaluator.subgraph_cost(members, memory)
        trace = trace_subgraph(
            chain_graph,
            members,
            output_tile_rows=cost.tile_rows,
            cached_weight_nodes=cost.cached_weight_nodes,
        )
        problems = validate_trace(
            trace,
            chain_graph,
            memory=memory,
            analytic_ema_bytes=cost.ema_bytes,
        )
        assert problems == []

    def test_trace_ema_matches_analytic_when_fully_cached(self, chain_graph):
        members = compute_members(chain_graph)
        memory = MemoryConfig.separate(mb(1), mb(2))
        cost = Evaluator(chain_graph).subgraph_cost(members, memory)
        trace = trace_subgraph(
            chain_graph,
            members,
            output_tile_rows=cost.tile_rows,
            cached_weight_nodes=cost.cached_weight_nodes,
        )
        # A 2MB weight buffer caches everything: EMA has no re-streaming
        # term and the trace must agree with the closed form exactly.
        assert set(cost.cached_weight_nodes) == set(members)
        assert trace.ema_bytes == cost.ema_bytes

    def test_tampered_trace_detected(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members)
        tampered = type(trace)(
            members=trace.members,
            tile_rows=trace.tile_rows,
            num_ops=trace.num_ops,
            events=trace.events[:-1],  # drop a store
            snapshots=trace.snapshots,
            cached_weight_nodes=trace.cached_weight_nodes,
        )
        problems = validate_trace(tampered, chain_graph)
        assert problems

    def test_capacity_violation_detected(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members, output_tile_rows=32)
        tiny = MemoryConfig.separate(kb(1), kb(1))
        problems = validate_trace(trace, chain_graph, memory=tiny)
        assert any("capacity" in p for p in problems)

    @pytest.mark.parametrize("cores,batch", [(2, 2), (2, 1), (1, 2)])
    def test_trace_refuses_more_than_one_core_or_sample(
        self, chain_graph, cores, batch
    ):
        # The replay runs one core on one sample of the whole tile. On 2
        # cores with batch 2 the pricer calls the whole chain feasible in
        # 1,664 B per core, yet that replay peaks at 3,328 B.
        accel = AcceleratorConfig(num_cores=cores)
        evaluator = Evaluator(chain_graph, accel, batch=batch)
        with pytest.raises(ConfigError, match="one core and one sample"):
            evaluator.trace(compute_members(chain_graph), MemoryConfig.shared(1664))

    @settings(max_examples=15, deadline=None)
    @given(graph=random_dags())
    def test_random_subgraphs_validate_against_evaluator(self, graph):
        members = compute_members(graph)
        memory = MemoryConfig.separate(mb(4), mb(4))
        cost = Evaluator(graph).subgraph_cost(members, memory)
        if not cost.feasible:
            return
        trace = trace_subgraph(
            graph,
            members,
            output_tile_rows=cost.tile_rows,
            cached_weight_nodes=cost.cached_weight_nodes,
        )
        problems = validate_trace(
            trace, graph, memory=memory, analytic_ema_bytes=cost.ema_bytes
        )
        assert problems == []

    @settings(max_examples=15, deadline=None)
    @given(graph=random_dags())
    def test_peak_occupancy_bounded_by_footprint(self, graph):
        members = compute_members(graph)
        from repro.execution.footprint import activation_footprint
        from repro.execution.tiling import derive_tiling

        tiling = derive_tiling(graph, members, output_tile_rows=2)
        trace = trace_subgraph(graph, members, output_tile_rows=2)
        footprint = activation_footprint(graph, tiling)
        assert trace.peak_occupancy_bytes <= footprint


class TestRendering:
    def test_render_snapshot_shows_every_node(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members, output_tile_rows=2)
        text = render_snapshot(trace.snapshots[0], chain_graph)
        for name in trace.snapshots[0].resident:
            assert name in text

    def test_render_trace_summarizes_traffic(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members, output_tile_rows=2)
        text = render_trace(trace, chain_graph, max_snapshots=2)
        assert "EMA" in text
        assert str(trace.num_ops) in text

    def test_render_trace_truncation_note(self, chain_graph):
        members = compute_members(chain_graph)
        trace = trace_subgraph(chain_graph, members, output_tile_rows=1)
        text = render_trace(trace, chain_graph, max_snapshots=1)
        if trace.num_ops > 1:
            assert "more ops" in text
