"""Cross-module invariants from DESIGN.md, on real zoo models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AcceleratorConfig, MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.graphs.zoo import get_model
from repro.partition.partition import Partition
from repro.partition.validity import normalize_groups
from repro.units import kb, mb

from ..conftest import build_random_dag, fresh_copy


@pytest.fixture(scope="module")
def resnet():
    return get_model("resnet50")


class TestEmaLowerBound:
    """Invariant 3: EMA >= weights + model input + model output."""

    def test_every_partition_respects_bound(self, resnet):
        accel = AcceleratorConfig(memory=MemoryConfig.separate(mb(2), mb(2)))
        evaluator = Evaluator(resnet, accel)
        floor = (
            resnet.total_weight_bytes
            + resnet.model_input_bytes()
            + resnet.model_output_bytes()
        )
        for groups in (
            Partition.singletons(resnet).subgraph_sets,
            normalize_groups(
                resnet, [set(resnet.compute_names[i : i + 5]) for i in range(0, 80, 5)]
            ).subgraph_sets,
        ):
            cost = evaluator.evaluate(groups)
            assert cost.ema_bytes >= floor

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_random_dag_bound(self, seed):
        graph = build_random_dag(seed, 10)
        accel = AcceleratorConfig(memory=MemoryConfig.separate(kb(512), kb(512)))
        evaluator = Evaluator(graph, accel)
        cost = evaluator.evaluate(Partition.singletons(graph).subgraph_sets)
        floor = (
            graph.total_weight_bytes
            + graph.model_input_bytes()
            + graph.model_output_bytes()
        )
        assert cost.ema_bytes >= floor


class TestCapacityMonotonicity:
    """Invariant 4: more capacity never worsens the best achievable EMA."""

    def test_bigger_buffers_never_hurt_fixed_partition(self, resnet):
        partition = Partition.singletons(resnet)
        previous = float("inf")
        for size_kb in (256, 512, 1024, 2048):
            accel = AcceleratorConfig(
                memory=MemoryConfig.separate(kb(size_kb), kb(int(size_kb * 1.125)))
            )
            cost = Evaluator(resnet, accel).evaluate(partition.subgraph_sets)
            assert cost.ema_bytes <= previous
            previous = cost.ema_bytes


class TestMergeMonotonicity:
    """Merging two adjacent subgraphs never increases EMA (capacity aside)."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500))
    def test_on_random_dags(self, seed):
        graph = build_random_dag(seed, 8)
        accel = AcceleratorConfig(memory=MemoryConfig.separate(mb(8), mb(8)))
        evaluator = Evaluator(graph, accel)
        names = graph.compute_names
        for i in range(len(names) - 1):
            u, v = names[i], names[i + 1]
            if v not in graph.successors(u):
                continue
            separate = (
                evaluator.subgraph_cost(frozenset([u])).ema_bytes
                + evaluator.subgraph_cost(frozenset([v])).ema_bytes
            )
            merged = evaluator.subgraph_cost(frozenset([u, v])).ema_bytes
            assert merged <= separate


class TestSubgraphCostConsistency:
    def test_partition_ema_is_sum_of_parts(self, resnet):
        accel = AcceleratorConfig(memory=MemoryConfig.separate(mb(1), kb(1152)))
        evaluator = Evaluator(resnet, accel)
        partition = Partition.singletons(resnet)
        cost = evaluator.evaluate(partition.subgraph_sets)
        total = sum(
            evaluator.subgraph_cost(s).ema_bytes for s in partition.subgraph_sets
        )
        assert cost.ema_bytes == total

    def test_deterministic_across_calls(self, resnet):
        accel = AcceleratorConfig(memory=MemoryConfig.separate(mb(1), kb(1152)))
        a = Evaluator(resnet, accel).evaluate(
            Partition.singletons(resnet).subgraph_sets
        )
        # A copy of the graph, so b derives what a derived on its own.
        b = Evaluator(fresh_copy(resnet), accel).evaluate(
            Partition.singletons(resnet).subgraph_sets
        )
        assert a.ema_bytes == b.ema_bytes
        assert a.energy_pj == b.energy_pj
