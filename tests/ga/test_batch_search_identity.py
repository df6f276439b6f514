"""Priming is invisible to every search loop.

Priming only changes *when* subgraphs are priced (all of a genome
batch's unseen keys at once, before its per-genome calls) — never what
any genome costs. These tests run each searcher twice with identical
seeds, on the :class:`Evaluator` and on the :class:`ReferenceEvaluator`
(which primes nothing and prices every genome in full), and demand
identical trajectories: best cost, best genome, evaluation counts, and
history. Each fast run gets a newly built graph, so its priming counters
count its own pricing, not what an earlier test left in the graph's
store.
"""

from __future__ import annotations

import pytest

from repro.config import MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.cost.reference import ReferenceEvaluator
from repro.dse.nsga import NSGAConfig, nsga2_co_optimize
from repro.dse.two_step import random_search_ga
from repro.experiments.common import paper_accelerator
from repro.ga.engine import GAConfig, GeneticEngine
from repro.ga.islands import IslandConfig, island_search
from repro.ga.problem import OptimizationProblem
from repro.search_space import CapacitySpace
from repro.units import kb, mb

from ..conftest import fresh_model

MEMORY = MemoryConfig.separate(mb(1), kb(1152))


def _problem(
    name: str = "resnet50", evaluator_cls=Evaluator
) -> OptimizationProblem:
    return OptimizationProblem(
        evaluator=evaluator_cls(fresh_model(name), paper_accelerator()),
        metric=Metric.EMA,
        fixed_memory=MEMORY,
    )


def _ga_trace(evaluator_cls, seed: int):
    problem = _problem(evaluator_cls=evaluator_cls)
    config = GAConfig(population_size=14, generations=3, seed=seed)
    result = GeneticEngine(problem, config).run()
    return (
        result.best_cost,
        result.best_genome.key(),
        result.num_evaluations,
        result.history,
        problem.evaluator.num_batch_priced,
    )


class TestGAIdentity:
    @pytest.mark.parametrize("seed", (0, 1))
    def test_serial_identical(self, seed):
        fast = _ga_trace(Evaluator, seed)
        reference = _ga_trace(ReferenceEvaluator, seed)
        assert fast[:4] == reference[:4]
        assert fast[4] > 0  # priming actually ran
        assert reference[4] == 0


class TestIslandsIdentity:
    def test_island_search_identical(self):
        def run(evaluator_cls):
            problem = _problem("mobilenet_v2", evaluator_cls)
            config = IslandConfig(
                base=GAConfig(population_size=8, generations=2, seed=4),
                num_islands=2,
                epochs=2,
                epoch_generations=2,
                migrants=2,
            )
            result = island_search(problem, config)
            return (
                result.best_cost,
                result.best_genome.key(),
                result.num_evaluations,
                problem.evaluator.num_batch_priced,
            )

        fast = run(Evaluator)
        reference = run(ReferenceEvaluator)
        assert fast[:3] == reference[:3]
        assert fast[3] > 0
        assert reference[3] == 0


class TestNSGAIdentity:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_nsga_identical(self, seed):
        def run(evaluator_cls):
            evaluator = evaluator_cls(
                fresh_model("googlenet"), paper_accelerator()
            )
            config = NSGAConfig(population_size=10, generations=2, seed=seed)
            result = nsga2_co_optimize(
                evaluator, CapacitySpace.paper_separate(), Metric.EMA, config
            )
            return (
                [(p.capacity_bytes, p.metric_cost) for p in result.front],
                result.num_evaluations,
                result.history,
                evaluator.num_batch_priced,
            )

        fast = run(Evaluator)
        reference = run(ReferenceEvaluator)
        assert fast[:3] == reference[:3]
        assert fast[3] > 0
        assert reference[3] == 0


class TestTwoStepIdentity:
    def test_random_search_ga_identical(self):
        def run(evaluator_cls):
            evaluator = evaluator_cls(fresh_model("unet"), paper_accelerator())
            result = random_search_ga(
                evaluator,
                CapacitySpace.paper_separate(),
                num_candidates=2,
                metric=Metric.EMA,
                ga_config=GAConfig(population_size=8, generations=2),
                seed=6,
            )
            return (
                result.best_cost,
                result.best_genome.key(),
                result.num_evaluations,
                evaluator.num_batch_priced,
            )

        fast = run(Evaluator)
        reference = run(ReferenceEvaluator)
        assert fast[:3] == reference[:3]
        assert fast[3] > 0
        assert reference[3] == 0
