"""The genetic engine, the problem wrapper, selection, and SA."""

import random

import pytest

from repro.config import AcceleratorConfig, MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.errors import ConfigError, SearchError
from repro.ga.annealing import SAConfig, simulated_annealing
from repro.ga.engine import GAConfig, GeneticEngine
from repro.ga.genome import Genome
from repro.ga.population import initialize_population
from repro.ga.problem import OptimizationProblem
from repro.ga.selection import tournament_select
from repro.partition.partition import Partition
from repro.partition.validity import check_partition
from repro.search_space import CapacitySpace
from repro.units import kb

from ..conftest import build_chain, build_diamond


@pytest.fixture
def problem():
    graph = build_chain(depth=4, size=32, channels=8)
    memory = MemoryConfig.separate(kb(128), kb(128))
    evaluator = Evaluator(graph, AcceleratorConfig(memory=memory))
    return OptimizationProblem(
        evaluator=evaluator, metric=Metric.EMA, fixed_memory=memory
    )


@pytest.fixture
def co_problem():
    graph = build_chain(depth=4, size=32, channels=8)
    evaluator = Evaluator(graph, AcceleratorConfig())
    return OptimizationProblem(
        evaluator=evaluator,
        metric=Metric.ENERGY,
        alpha=0.002,
        space=CapacitySpace.paper_shared(),
    )


class TestSelection:
    def test_picks_low_cost_often(self):
        rng = random.Random(0)
        population = ["bad", "good"]
        costs = [100.0, 1.0]
        winners = tournament_select(population, costs, 50, rng, tournament_size=2)
        assert winners.count("good") > 35

    def test_count_respected(self):
        rng = random.Random(0)
        winners = tournament_select([1, 2, 3], [3.0, 2.0, 1.0], 7, rng)
        assert len(winners) == 7

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            tournament_select([], [], 1, random.Random(0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            tournament_select([1], [1.0, 2.0], 1, random.Random(0))


class TestProblem:
    def test_needs_space_or_memory(self):
        graph = build_chain(depth=2)
        evaluator = Evaluator(graph, AcceleratorConfig())
        with pytest.raises(ConfigError):
            OptimizationProblem(evaluator=evaluator)

    def test_partition_only_pins_memory(self, problem):
        rng = random.Random(0)
        genome = problem.random_genome(rng)
        assert problem.memory_of(genome) is problem.fixed_memory

    def test_co_opt_uses_genome_memory(self, co_problem):
        rng = random.Random(0)
        genome = co_problem.random_genome(rng)
        assert co_problem.memory_of(genome) == genome.memory

    def test_repair_splits_oversized(self):
        graph = build_chain(depth=4, size=32, channels=8)
        tiny = MemoryConfig.separate(kb(2), kb(2))
        evaluator = Evaluator(graph, AcceleratorConfig(memory=tiny))
        problem = OptimizationProblem(
            evaluator=evaluator, metric=Metric.EMA, fixed_memory=tiny
        )
        whole = Genome(partition=Partition.whole_graph(graph), memory=tiny)
        repaired = problem.repair(whole)
        assert repaired.partition.num_subgraphs > 1

    def test_cost_is_memoized(self, problem):
        rng = random.Random(0)
        genome = problem.random_genome(rng)
        first = problem.cost(genome)
        assert problem.cost(genome) == first

    def test_evaluate_matches_formula1(self, problem):
        rng = random.Random(0)
        genome = problem.random_genome(rng)
        value, cost = problem.evaluate(genome)
        assert value == cost.ema_bytes


class TestEngine:
    def test_improves_over_population_best(self, problem):
        config = GAConfig(population_size=12, generations=6, seed=0)
        result = GeneticEngine(problem, config).run()
        assert result.best_cost < float("inf")
        assert result.num_evaluations > 12
        check_partition(problem.graph, result.best_genome.partition.assignment)

    def test_history_is_monotone(self, problem):
        config = GAConfig(population_size=10, generations=5, seed=1)
        result = GeneticEngine(problem, config).run()
        costs = [c for _, c in result.history]
        assert costs == sorted(costs, reverse=True)

    def test_max_samples_bounds_evaluations(self, problem):
        config = GAConfig(
            population_size=10, generations=50, seed=2, max_samples=35
        )
        result = GeneticEngine(problem, config).run()
        assert result.num_evaluations <= 45  # one final generation may finish

    def test_no_feasible_genome_reports_inf(self):
        # A shared buffer no single layer fits in: every genome prices at
        # inf, and the run still returns a (valid) genome instead of
        # asserting.
        graph = build_chain(depth=4, size=32, channels=8)
        nothing_fits = MemoryConfig.shared(64)
        evaluator = Evaluator(graph, AcceleratorConfig(memory=nothing_fits))
        problem = OptimizationProblem(
            evaluator=evaluator, metric=Metric.ENERGY, fixed_memory=nothing_fits
        )
        config = GAConfig(population_size=4, generations=2, seed=0)
        result = GeneticEngine(problem, config).run()
        assert result.best_cost == float("inf")
        assert result.num_evaluations == 12
        assert result.history == []
        check_partition(graph, result.best_genome.partition.assignment)

    def test_record_samples(self, co_problem):
        config = GAConfig(
            population_size=8, generations=3, seed=3, record_samples=True
        )
        result = GeneticEngine(co_problem, config).run()
        assert len(result.samples) == result.num_evaluations
        assert all(s.total_buffer_bytes > 0 for s in result.samples)

    def test_seeded_runs_are_deterministic(self, problem):
        config = GAConfig(population_size=10, generations=4, seed=7)
        a = GeneticEngine(problem, config).run()
        b = GeneticEngine(problem, config).run()
        assert a.best_cost == b.best_cost
        assert a.history == b.history

    def test_seeds_warm_start(self, problem):
        seed_genome = Genome(
            partition=Partition.whole_graph(problem.graph),
            memory=problem.fixed_memory,
        )
        seed_cost = problem.cost(seed_genome)
        config = GAConfig(population_size=8, generations=2, seed=4)
        result = GeneticEngine(problem, config).run(seeds=[seed_genome])
        assert result.best_cost <= seed_cost

    def test_bad_config_rejected(self):
        with pytest.raises(SearchError):
            GAConfig(population_size=1)
        with pytest.raises(SearchError):
            GAConfig(generations=0)

    def test_co_exploration_run(self, co_problem):
        config = GAConfig(population_size=10, generations=5, seed=5)
        result = GeneticEngine(co_problem, config).run()
        space = co_problem.space
        assert result.best_genome.memory.shared_buffer_bytes in space.shared_candidates


class TestSimulatedAnnealing:
    def test_finds_reasonable_solution(self, problem):
        result = simulated_annealing(problem, SAConfig(steps=200, seed=0))
        assert result.best_cost < float("inf")
        check_partition(problem.graph, result.best_genome.partition.assignment)

    def test_deterministic_with_seed(self, problem):
        a = simulated_annealing(problem, SAConfig(steps=100, seed=3))
        b = simulated_annealing(problem, SAConfig(steps=100, seed=3))
        assert a.best_cost == b.best_cost

    def test_best_never_worse_than_initial(self, problem):
        rng = random.Random(11)
        initial = problem.random_genome(rng)
        initial_cost = problem.cost(initial)
        result = simulated_annealing(
            problem, SAConfig(steps=150, seed=4), initial=initial
        )
        assert result.best_cost <= initial_cost

    def test_bad_config_rejected(self):
        with pytest.raises(SearchError):
            SAConfig(steps=0)
        with pytest.raises(SearchError):
            SAConfig(initial_temp_fraction=1e-6, final_temp_fraction=1e-3)

    def test_co_opt_mode(self, co_problem):
        result = simulated_annealing(co_problem, SAConfig(steps=150, seed=5))
        assert result.best_genome.memory.shared_buffer_bytes > 0


class TestPopulation:
    def test_size_respected(self, problem):
        rng = random.Random(0)
        population = initialize_population(problem, 9, rng)
        assert len(population) == 9

    def test_seeds_included_first(self, problem):
        rng = random.Random(0)
        seed_genome = Genome(
            partition=Partition.singletons(problem.graph),
            memory=problem.fixed_memory,
        )
        population = initialize_population(problem, 5, rng, seeds=[seed_genome])
        assert population[0].partition == seed_genome.partition
