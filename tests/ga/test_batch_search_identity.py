"""Batch pricing is invisible to every search loop, for any backend.

Batch pricing only changes *when* subgraphs are priced (all at once,
per batch, through the tensorized fast path) — never what any genome
costs. These tests run each searcher twice with identical seeds, on the
:class:`Evaluator` and on the :class:`ReferenceEvaluator` (which prices
nothing in batch and every genome in full), and demand identical
trajectories: best cost, best genome, evaluation counts, and history.
The process-pool cases additionally pin that chunk-level priming
composes with warm-summary shipping.
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
from repro.graphs.zoo import get_model
from repro.parallel.backend import ProcessPoolBackend
from repro.search_space import CapacitySpace
from repro.units import kb, mb

MEMORY = MemoryConfig.separate(mb(1), kb(1152))


def _problem(
    name: str = "resnet50", evaluator_cls=Evaluator
) -> OptimizationProblem:
    return OptimizationProblem(
        evaluator=evaluator_cls(get_model(name), paper_accelerator()),
        metric=Metric.EMA,
        fixed_memory=MEMORY,
    )


def _ga_trace(evaluator_cls, seed: int, backend=None):
    problem = _problem(evaluator_cls=evaluator_cls)
    config = GAConfig(population_size=14, generations=3, seed=seed)
    result = GeneticEngine(problem, config, backend=backend).run()
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
        assert fast[4] > 0  # the batch path actually ran
        assert reference[4] == 0

    def test_process_pool_identical(self):
        serial = _ga_trace(Evaluator, seed=2)
        with ProcessPoolBackend(workers=2, chunk_size=4) as backend:
            pooled = _ga_trace(Evaluator, seed=2, backend=backend)
        assert pooled[:4] == serial[:4]


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
                get_model("googlenet"), paper_accelerator()
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

    def test_nsga_process_pool_identical(self):
        def run(backend):
            evaluator = Evaluator(get_model("googlenet"), paper_accelerator())
            config = NSGAConfig(population_size=10, generations=2, seed=1)
            result = nsga2_co_optimize(
                evaluator,
                CapacitySpace.paper_separate(),
                Metric.EMA,
                config,
                backend=backend,
            )
            return (
                [(p.capacity_bytes, p.metric_cost) for p in result.front],
                result.num_evaluations,
                result.history,
            )

        serial = run(None)
        with ProcessPoolBackend(workers=2, chunk_size=3) as backend:
            pooled = run(backend)
        assert pooled == serial


class TestTwoStepIdentity:
    def test_random_search_ga_identical(self):
        def run(evaluator_cls):
            evaluator = evaluator_cls(get_model("unet"), paper_accelerator())
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
