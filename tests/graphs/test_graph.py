"""The computation-graph DAG."""

import pytest
from hypothesis import given

from repro.errors import GraphError
from repro.graphs.graph import ComputationGraph
from repro.graphs.ops import LayerSpec, OpKind, input_layer
from repro.graphs.tensor import TensorShape

from ..conftest import build_chain, build_diamond, random_dags


class TestConstruction:
    def test_duplicate_name_rejected(self):
        g = ComputationGraph()
        g.add_layer(input_layer("in", TensorShape(4, 4, 4)))
        with pytest.raises(GraphError):
            g.add_layer(input_layer("in", TensorShape(4, 4, 4)))

    def test_unknown_input_rejected(self):
        g = ComputationGraph()
        with pytest.raises(GraphError):
            g.add_layer(
                LayerSpec("c", OpKind.CONV, TensorShape(4, 4, 4)), ["ghost"]
            )

    def test_compute_layer_needs_input(self):
        g = ComputationGraph()
        with pytest.raises(GraphError):
            g.add_layer(LayerSpec("c", OpKind.CONV, TensorShape(4, 4, 4)), [])

    def test_input_layer_cannot_have_producers(self):
        g = ComputationGraph()
        g.add_layer(input_layer("a", TensorShape(4, 4, 4)))
        with pytest.raises(GraphError):
            g.add_layer(input_layer("b", TensorShape(4, 4, 4)), ["a"])

    def test_duplicate_edge_rejected(self):
        g = ComputationGraph()
        g.add_layer(input_layer("in", TensorShape(4, 4, 4)))
        with pytest.raises(GraphError):
            g.add_layer(
                LayerSpec("e", OpKind.ELTWISE, TensorShape(4, 4, 4)),
                ["in", "in"],
            )


class TestQueries:
    def test_len_and_contains(self, chain_graph):
        assert len(chain_graph) == 5
        assert "conv1" in chain_graph
        assert "ghost" not in chain_graph

    def test_unknown_layer_raises(self, chain_graph):
        with pytest.raises(GraphError):
            chain_graph.layer("ghost")

    def test_predecessors_successors(self, diamond_graph):
        assert diamond_graph.predecessors("join") == ("left", "right")
        assert diamond_graph.successors("stem") == ("left", "right")

    def test_edges_deterministic(self, diamond_graph):
        assert diamond_graph.edges == (
            ("in", "stem"),
            ("stem", "left"),
            ("stem", "right"),
            ("left", "join"),
            ("right", "join"),
        )

    def test_inputs_and_outputs(self, diamond_graph):
        assert diamond_graph.input_names == ("in",)
        assert diamond_graph.output_names == ("join",)

    def test_compute_names_excludes_inputs(self, chain_graph):
        assert "in" not in chain_graph.compute_names
        assert len(chain_graph.compute_names) == 4


class TestTopology:
    def test_topological_order_respects_edges(self, diamond_graph):
        order = diamond_graph.topological_order()
        index = {n: i for i, n in enumerate(order)}
        for u, v in diamond_graph.edges:
            assert index[u] < index[v]

    def test_depth(self, diamond_graph):
        depths = diamond_graph.depth()
        assert depths["in"] == 0
        assert depths["stem"] == 1
        assert depths["join"] == 3

    def test_validate_passes_on_good_graph(self, diamond_graph):
        diamond_graph.validate()

    def test_validate_rejects_unconsumed_input(self):
        g = ComputationGraph()
        g.add_layer(input_layer("in", TensorShape(4, 4, 4)))
        g.add_layer(
            LayerSpec("c", OpKind.CONV, TensorShape(4, 4, 4)), ["in"]
        )
        g.add_layer(input_layer("orphan", TensorShape(4, 4, 4)))
        with pytest.raises(GraphError):
            g.validate()


class TestCachedViews:
    def test_views_are_cached(self, diamond_graph):
        assert diamond_graph.compute_names is diamond_graph.compute_names
        assert diamond_graph.edges is diamond_graph.edges
        assert diamond_graph.topology() is diamond_graph.topology()

    def test_add_layer_invalidates_views(self, chain_graph):
        compute, edges = chain_graph.compute_names, chain_graph.edges
        topo = chain_graph.topology()
        chain_graph.add_layer(
            LayerSpec("conv5", OpKind.CONV, TensorShape(32, 32, 8)), ["conv4"]
        )
        assert chain_graph.compute_names == (*compute, "conv5")
        assert chain_graph.edges == (*edges, ("conv4", "conv5"))
        assert chain_graph.topology() is not topo
        assert chain_graph.topology().names[-1] == "conv5"


@given(random_dags())
def test_topology_ids_mirror_the_named_graph(graph):
    topo = graph.topology()
    assert topo.names == graph.topological_order()
    assert topo.index == graph.topo_index()
    names = topo.names
    assert [(names[u], names[v]) for u, v in topo.edges] == list(graph.edges)
    assert tuple(names[i] for i in topo.compute) == graph.compute_names
    for i, name in enumerate(names):
        assert tuple(names[p] for p in topo.preds[i]) == graph.predecessors(name)
        assert tuple(names[s] for s in topo.succs[i]) == graph.successors(name)
        assert topo.compute_mask[i] == (not graph.layer(name).is_input)


class TestAggregates:
    def test_total_weight_bytes(self):
        g = build_chain(depth=3, channels=8)
        assert g.total_weight_bytes == 3 * (9 * 8 * 8)

    def test_total_macs_positive(self, chain_graph):
        assert chain_graph.total_macs > 0

    def test_model_io_bytes(self, diamond_graph):
        assert diamond_graph.model_input_bytes() == 32 * 32 * 8
        assert diamond_graph.model_output_bytes() == 32 * 32 * 8


@given(random_dags())
def test_random_dags_are_valid(graph):
    graph.validate()
    order = graph.topological_order()
    index = {n: i for i, n in enumerate(order)}
    for u, v in graph.edges:
        assert index[u] < index[v]


@given(random_dags())
def test_depth_monotone_along_edges(graph):
    depths = graph.depth()
    for u, v in graph.edges:
        assert depths[u] < depths[v]
