"""Incremental (delta) population evaluation: identity and delta pricing.

The incremental path must (a) price a child genome by re-pricing only
the subgraphs that differ from already-seen genomes, (b) produce
objective values bit-identical to the retained reference pipeline,
which prices every genome from scratch, and (c) skip pricing whatever
summaries another evaluator exported.
"""

from __future__ import annotations

import random

import pytest

from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.cost.reference import ReferenceEvaluator
from repro.experiments.common import paper_accelerator, paper_memory
from repro.ga.engine import GAConfig, GeneticEngine
from repro.ga.genome import Genome
from repro.ga.mutation import merge_subgraph, split_subgraph
from repro.ga.problem import OptimizationProblem
from repro.graphs.zoo import get_model


def make_problem(model: str = "googlenet",
                 evaluator_cls=Evaluator) -> OptimizationProblem:
    graph = get_model(model)
    return OptimizationProblem(
        evaluator=evaluator_cls(graph, paper_accelerator()),
        metric=Metric.EMA,
        alpha=None,
        fixed_memory=paper_memory(),
    )


class TestDeltaPricing:
    def test_child_prices_only_differing_subgraphs(self):
        """A mutated child re-prices exactly the changed cut points."""
        problem = make_problem()
        rng = random.Random(0)
        parent = problem.random_genome(rng)
        problem.cost(parent)
        priced_before = problem.evaluator.num_cost_calls

        child = problem.repair(split_subgraph(parent, rng))
        parent_sets = set(parent.partition.subgraph_sets)
        new_sets = [
            s for s in child.partition.subgraph_sets if s not in parent_sets
        ]
        problem.cost(child)
        delta = problem.evaluator.num_cost_calls - priced_before
        assert delta <= len(new_sets)

    def test_seen_genome_prices_nothing(self):
        problem = make_problem()
        rng = random.Random(1)
        genome = problem.random_genome(rng)
        problem.cost(genome)
        calls = problem.evaluator.num_cost_calls
        # Same partition under the same memory: fully answered by caches.
        clone = Genome(partition=genome.partition, memory=genome.memory)
        problem._fitness_cache.clear()
        problem.cost(clone)
        assert problem.evaluator.num_cost_calls == calls


class TestIncrementalIdentity:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_incremental_matches_from_scratch(self, seed):
        rng = random.Random(seed)
        incremental = make_problem()
        scratch = make_problem(evaluator_cls=ReferenceEvaluator)
        for _ in range(6):
            genome = incremental.repair(
                Genome(
                    partition=incremental.random_genome(rng).partition,
                    memory=paper_memory(),
                )
            )
            assert incremental.cost(genome) == scratch.cost(genome)

    def test_mutation_chain_matches_reference_pipeline(self):
        fast = make_problem()
        reference = make_problem(evaluator_cls=ReferenceEvaluator)
        rng_a, rng_b = random.Random(3), random.Random(3)
        genome_a = fast.random_genome(rng_a)
        genome_b = reference.random_genome(rng_b)
        assert genome_a.key() == genome_b.key()
        for _ in range(8):
            op = random.Random(len(genome_a.partition.subgraph_sets)).choice(
                (split_subgraph, merge_subgraph)
            )
            genome_a = fast.repair(op(genome_a, rng_a))
            genome_b = reference.repair(op(genome_b, rng_b))
            assert genome_a.key() == genome_b.key()
            assert fast.cost(genome_a) == reference.cost(genome_b)


class TestEngineDefaults:
    def test_ga_identical_incremental_on_off(self):
        """The engine's incremental, batch-priced search ("on") matches
        the reference pipeline's full per-genome pricing ("off")."""

        def run(evaluator_cls):
            problem = make_problem(evaluator_cls=evaluator_cls)
            config = GAConfig(population_size=10, generations=3, seed=5)
            return GeneticEngine(problem, config).run()

        on, off = run(Evaluator), run(ReferenceEvaluator)
        assert on.best_cost == off.best_cost
        assert on.history == off.history
        assert on.best_genome.key() == off.best_genome.key()
        assert on.num_evaluations == off.num_evaluations


class TestWarmSummaries:
    def test_warm_state_absorption_skips_pricing(self):
        donor = make_problem()
        receiver = make_problem()
        rng = random.Random(4)
        genome = donor.random_genome(rng)
        donor.cost(genome)
        entries = donor.evaluator.export_summaries()
        assert entries

        receiver.evaluator.absorb_summaries(entries)
        receiver.cost(genome)
        # All per-subgraph scalars were imported, so nothing was priced.
        assert receiver.evaluator.num_cost_calls == 0
        assert receiver.cost(genome) == donor.cost(genome)
