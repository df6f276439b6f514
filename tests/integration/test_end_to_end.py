"""End-to-end pipelines on real models: the user-facing flows."""

import pytest

from repro.config import AcceleratorConfig, MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.dse.cocco import cocco_co_optimize, cocco_partition_only
from repro.ga.engine import GAConfig
from repro.graphs.zoo import get_model
from repro.partition.greedy import greedy_partition
from repro.partition.partition import Partition
from repro.partition.validity import check_partition
from repro.search_space import CapacitySpace
from repro.units import kb

TINY_GA = GAConfig(population_size=10, generations=4, seed=0)


@pytest.fixture(scope="module")
def googlenet_eval():
    graph = get_model("googlenet")
    accel = AcceleratorConfig(memory=MemoryConfig.separate(kb(1024), kb(1152)))
    return Evaluator(graph, accel)


class TestGoogleNetPipeline:
    def test_ga_beats_layerwise(self, googlenet_eval):
        graph = googlenet_eval.graph
        layerwise = googlenet_eval.evaluate(
            Partition.singletons(graph).subgraph_sets
        )
        result = cocco_partition_only(
            googlenet_eval,
            googlenet_eval.accel.memory,
            metric=Metric.EMA,
            ga_config=TINY_GA,
        )
        assert result.partition_cost.ema_bytes < layerwise.ema_bytes
        check_partition(graph, result.best_genome.partition.assignment)

    def test_ga_warm_started_never_worse_than_greedy(self, googlenet_eval):
        graph = googlenet_eval.graph

        def cost_fn(members):
            cost = googlenet_eval.subgraph_cost(members)
            return cost.ema_bytes if cost.feasible else float("inf")

        greedy = greedy_partition(graph, cost_fn)
        greedy_cost = googlenet_eval.evaluate(greedy.subgraph_sets).ema_bytes
        result = cocco_partition_only(
            googlenet_eval,
            googlenet_eval.accel.memory,
            metric=Metric.EMA,
            ga_config=TINY_GA,
            seed_partitions=[greedy],
        )
        assert result.partition_cost.ema_bytes <= greedy_cost

    def test_co_exploration_recommends_on_grid(self, googlenet_eval):
        space = CapacitySpace.paper_shared()
        result = cocco_co_optimize(
            googlenet_eval, space, ga_config=TINY_GA, refine=False
        )
        assert result.memory.shared_buffer_bytes in space.shared_candidates
        assert result.partition_cost.feasible


class TestTransformerPipeline:
    def test_attention_graph_partitions(self):
        graph = get_model("transformer")
        accel = AcceleratorConfig(memory=MemoryConfig.separate(kb(1024), kb(1152)))
        evaluator = Evaluator(graph, accel)
        result = cocco_partition_only(
            evaluator, accel.memory, metric=Metric.EMA, ga_config=TINY_GA
        )
        assert result.partition_cost.feasible
        check_partition(graph, result.best_genome.partition.assignment)


class TestMultiCorePipeline:
    def test_co_opt_on_two_cores(self):
        graph = get_model("randwire_a")
        accel = AcceleratorConfig(num_cores=2)
        evaluator = Evaluator(graph, accel, batch=2)
        result = cocco_co_optimize(
            evaluator,
            CapacitySpace.paper_shared(),
            ga_config=TINY_GA,
            refine=False,
        )
        assert result.partition_cost.feasible
        assert result.partition_cost.energy_pj > 0
