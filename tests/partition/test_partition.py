"""The Partition datatype and its validity rules."""

import pytest
from hypothesis import given, settings

from repro.errors import PartitionError
from repro.partition.partition import Partition
from repro.partition.validity import check_partition

from ..conftest import build_chain, build_diamond, random_dags


class TestConstruction:
    def test_singletons(self, chain_graph):
        p = Partition.singletons(chain_graph)
        assert p.num_subgraphs == 4
        assert all(len(s) == 1 for s in p.subgraph_sets)

    def test_whole_graph(self, chain_graph):
        p = Partition.whole_graph(chain_graph)
        assert p.num_subgraphs == 1

    def test_from_groups(self, chain_graph):
        p = Partition.from_groups(
            chain_graph, [{"conv1", "conv2"}, {"conv3", "conv4"}]
        )
        assert p.index_of("conv1") == 0
        assert p.index_of("conv4") == 1

    def test_duplicate_membership_rejected(self, chain_graph):
        with pytest.raises(PartitionError):
            Partition.from_groups(
                chain_graph, [{"conv1", "conv2"}, {"conv2", "conv3"}]
            )

    def test_missing_layer_rejected(self, chain_graph):
        with pytest.raises(PartitionError):
            Partition.from_groups(chain_graph, [{"conv1"}])

    def test_input_layer_rejected(self, chain_graph):
        with pytest.raises(PartitionError):
            Partition.from_assignment(
                chain_graph, {"in": 0, "conv1": 0, "conv2": 0, "conv3": 0, "conv4": 0}
            )

    def test_input_in_place_of_a_layer_rejected(self, fig5_graph):
        # The right size, dense and in order, but in_b is a model input
        # and node0 is missing.
        with pytest.raises(PartitionError):
            Partition.from_assignment(fig5_graph, {"in_b": 0, "node1": 1, "node2": 2})


class TestLabelConstructor:
    """``Partition(graph, labels, sets)`` checks the pair in full."""

    def _parts(self, chain_graph):
        p = Partition.from_groups(chain_graph, [{"conv1", "conv2"}, {"conv3", "conv4"}])
        return list(p.labels), list(p.subgraph_sets)

    def test_accepts_a_consistent_pair(self, chain_graph):
        labels, sets = self._parts(chain_graph)
        p = Partition(chain_graph, labels, sets)
        assert p.assignment == {"conv1": 0, "conv2": 0, "conv3": 1, "conv4": 1}
        assert list(p.assignment) == list(chain_graph.compute_names)

    def test_sets_that_disagree_with_the_labels_rejected(self, chain_graph):
        labels, sets = self._parts(chain_graph)
        with pytest.raises(PartitionError):
            Partition(chain_graph, labels, [sets[1], sets[0]])
        with pytest.raises(PartitionError):
            Partition(chain_graph, labels, [frozenset({"conv1"}), sets[1]])
        with pytest.raises(PartitionError):
            Partition(chain_graph, labels, [sets[0] | {"in"}, sets[1]])
        with pytest.raises(PartitionError):
            Partition(chain_graph, labels, [sets[0] | {"ghost"}, sets[1]])

    @pytest.mark.parametrize("label", [0, 1, -2])
    def test_labelled_input_rejected(self, chain_graph, label):
        labels, sets = self._parts(chain_graph)
        labels[chain_graph.topology().index["in"]] = label
        with pytest.raises(PartitionError):
            Partition(chain_graph, labels, sets)

    def test_unlabelled_layer_rejected(self, chain_graph):
        labels, sets = self._parts(chain_graph)
        labels[chain_graph.topology().index["conv4"]] = -1
        with pytest.raises(PartitionError):
            Partition(chain_graph, labels, [sets[0], sets[1] - {"conv4"}])

    def test_wrong_length_and_empty_sets_rejected(self, chain_graph):
        labels, sets = self._parts(chain_graph)
        with pytest.raises(PartitionError):
            Partition(chain_graph, labels[:-1], sets)
        with pytest.raises(PartitionError):
            Partition(chain_graph, labels, [*sets, frozenset()])


class TestValidityRules:
    def test_precedence_violation_rejected(self, chain_graph):
        with pytest.raises(PartitionError):
            Partition.from_groups(
                chain_graph, [{"conv2"}, {"conv1"}, {"conv3"}, {"conv4"}]
            )

    def test_disconnected_subgraph_rejected(self, chain_graph):
        with pytest.raises(PartitionError):
            Partition.from_groups(
                chain_graph, [{"conv1", "conv3"}, {"conv2"}, {"conv4"}]
            )

    def test_parallel_branches_disconnected_rejected(self, diamond_graph):
        # {left, right} share no direct edge.
        with pytest.raises(PartitionError):
            Partition.from_groups(
                diamond_graph, [{"stem"}, {"left", "right"}, {"join"}]
            )

    def test_sparse_indices_rejected(self, chain_graph):
        with pytest.raises(PartitionError):
            check_partition(
                chain_graph,
                {"conv1": 0, "conv2": 2, "conv3": 3, "conv4": 4},
            )

    def test_parallel_branches_either_order_valid(self, diamond_graph):
        Partition.from_groups(
            diamond_graph, [{"stem"}, {"left"}, {"right"}, {"join"}]
        )
        Partition.from_groups(
            diamond_graph, [{"stem"}, {"right"}, {"left"}, {"join"}]
        )


class TestIdentity:
    def test_equality_and_hash(self, chain_graph):
        a = Partition.from_groups(chain_graph, [{"conv1", "conv2"}, {"conv3"}, {"conv4"}])
        b = Partition.from_groups(chain_graph, [{"conv2", "conv1"}, {"conv3"}, {"conv4"}])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self, chain_graph):
        a = Partition.singletons(chain_graph)
        b = Partition.whole_graph(chain_graph)
        assert a != b

    def test_members_lookup(self, chain_graph):
        p = Partition.whole_graph(chain_graph)
        assert p.members(0) == frozenset(chain_graph.compute_names)
        with pytest.raises(PartitionError):
            p.members(1)


@settings(max_examples=30, deadline=None)
@given(random_dags())
def test_singletons_always_valid(graph):
    p = Partition.singletons(graph)
    check_partition(graph, p.assignment)


@settings(max_examples=30, deadline=None)
@given(random_dags())
def test_whole_graph_valid_when_connected(graph):
    from repro.partition.subgraph import weakly_connected_components

    # Compute nodes consuming only the model input may be disconnected
    # from each other (input nodes don't provide connectivity).
    components = weakly_connected_components(graph, graph.compute_names)
    if len(components) == 1:
        p = Partition.whole_graph(graph)
        check_partition(graph, p.assignment)
    else:
        with pytest.raises(PartitionError):
            Partition.whole_graph(graph)
