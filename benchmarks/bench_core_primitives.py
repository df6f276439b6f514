"""Micro-benchmarks of the hot primitives inside the search loop.

These use pytest-benchmark's normal multi-round timing: they are the
operations a 50,000-sample exploration executes millions of times, so
their latency determines wall-clock search cost.
"""

import random

import pytest

from repro.cost.ema import profile_subgraph
from repro.cost.evaluator import Evaluator
from repro.execution.tiling import derive_tiling
from repro.ga.crossover import crossover
from repro.ga.genome import Genome
from repro.ga.mutation import merge_subgraph, modify_node, split_subgraph
from repro.graphs.zoo import get_model
from repro.partition.random_init import random_partition
from repro.partition.validity import normalize_groups, split_infeasible
from repro.experiments.common import paper_accelerator
from repro.search_space import CapacitySpace


@pytest.fixture(scope="module")
def resnet():
    return get_model("resnet50")


@pytest.fixture(scope="module")
def resnet_block(resnet):
    return frozenset(n for n in resnet.compute_names if n.startswith("res3_1"))


def test_derive_tiling_block(benchmark, resnet, resnet_block):
    benchmark(derive_tiling, resnet, resnet_block, 1)


def test_profile_subgraph_uncached(benchmark, resnet, resnet_block):
    # What an evaluator runs on a profile miss. A new Evaluator per round
    # would time a hit: evaluators of one graph share its subgraph store.
    benchmark(profile_subgraph, resnet, resnet_block)


def test_subgraph_cost_cached(benchmark, resnet, resnet_block):
    evaluator = Evaluator(resnet, paper_accelerator())
    evaluator.subgraph_cost(resnet_block)
    benchmark(evaluator.subgraph_cost, resnet_block)


def test_partition_evaluate(benchmark, resnet):
    evaluator = Evaluator(resnet, paper_accelerator())
    rng = random.Random(0)
    partition = random_partition(resnet, rng, p_new=0.3)
    evaluator.evaluate(partition.subgraph_sets)
    benchmark(evaluator.evaluate, partition.subgraph_sets)


def test_random_partition(benchmark, resnet):
    rng = random.Random(0)
    benchmark(random_partition, resnet, rng, 0.5)


def test_normalize_groups(benchmark, resnet):
    rng = random.Random(0)
    names = list(resnet.compute_names)
    rng.shuffle(names)
    groups = [set(names[i : i + 6]) for i in range(0, len(names), 6)]
    benchmark(normalize_groups, resnet, groups)


def test_crossover(benchmark, resnet):
    rng = random.Random(0)
    space = CapacitySpace.paper_shared()
    dad = Genome(random_partition(resnet, rng, 0.3), space.sample(rng))
    mom = Genome(random_partition(resnet, rng, 0.7), space.sample(rng))
    benchmark(crossover, dad, mom, rng, space)


def test_modify_node_mutation(benchmark, resnet):
    rng = random.Random(0)
    space = CapacitySpace.paper_shared()
    genome = Genome(random_partition(resnet, rng, 0.5), space.sample(rng))
    benchmark(modify_node, genome, rng)


def test_split_subgraph_mutation(benchmark, resnet):
    rng = random.Random(0)
    space = CapacitySpace.paper_shared()
    genome = Genome(random_partition(resnet, rng, 0.1), space.sample(rng))
    benchmark(split_subgraph, genome, rng)


def test_merge_subgraph_mutation(benchmark, resnet):
    rng = random.Random(0)
    space = CapacitySpace.paper_shared()
    genome = Genome(random_partition(resnet, rng, 0.5), space.sample(rng))
    benchmark(merge_subgraph, genome, rng)


def test_split_infeasible(benchmark, resnet):
    # Every subgraph of more than 6 layers is bisected until it fits.
    rng = random.Random(0)
    partition = random_partition(resnet, rng, 0.05)
    benchmark(split_infeasible, partition, lambda members: len(members) <= 6)
