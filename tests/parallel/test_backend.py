"""The evaluation-backend subsystem: serial/process-pool equivalence.

The contract under test is the one the search loops rely on: genome
evaluation is pure, so fanning a population out to worker processes must
change *nothing* about a search result — best genome, best cost, history,
telemetry, and evaluation counts stay bit-identical to serial execution
for a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.config import MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.errors import ConfigError, SearchError
from repro.dse.nsga import NSGAConfig, nsga2_co_optimize
from repro.ga.engine import GAConfig, GeneticEngine
from repro.ga.islands import IslandConfig, island_search
from repro.ga.problem import OptimizationProblem
from repro.parallel import (
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.search_space import CapacitySpace
from repro.units import kb

from ..conftest import build_chain, build_diamond


# ---------------------------------------------------------------------------
# Module-level tasks: picklable by reference in worker processes.
# ---------------------------------------------------------------------------
class SquareTask:
    def __call__(self, x: int) -> int:
        return x * x


class ExplodingTask:
    def __call__(self, x: int) -> int:
        if x == 3:
            raise ValueError("boom at three")
        return x


class ForbiddenBackend:
    """A backend that fails the test if any work actually reaches it."""

    def map(self, task, items):
        raise AssertionError(f"backend should not be used, got {len(items)} items")

    def close(self):
        return None


# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def chain():
    return build_chain(depth=6)


@pytest.fixture(scope="module")
def diamond():
    return build_diamond()


def make_problem(graph) -> OptimizationProblem:
    return OptimizationProblem(
        evaluator=Evaluator(graph),
        metric=Metric.EMA,
        alpha=None,
        fixed_memory=MemoryConfig.separate(kb(64), kb(64)),
    )


def make_co_problem(graph) -> OptimizationProblem:
    return OptimizationProblem(
        evaluator=Evaluator(graph),
        metric=Metric.ENERGY,
        alpha=0.002,
        space=CapacitySpace.paper_separate(),
    )


# ---------------------------------------------------------------------------
class TestResolveBackend:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_for_trivial_worker_counts(self, workers):
        assert isinstance(resolve_backend(workers), SerialBackend)

    def test_pool_for_multiple_workers(self):
        backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3
        backend.close()

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError):
            resolve_backend(-2)
        with pytest.raises(ConfigError):
            ProcessPoolBackend(workers=0)
        with pytest.raises(ConfigError):
            ProcessPoolBackend(workers=2, chunk_size=0)


class TestSerialBackend:
    def test_maps_in_order(self):
        assert SerialBackend().map(SquareTask(), [1, 2, 3]) == [1, 4, 9]

    def test_empty_batch(self):
        assert SerialBackend().map(SquareTask(), []) == []


class TestProcessPoolBackend:
    def test_preserves_input_order(self):
        with ProcessPoolBackend(workers=2, chunk_size=3) as backend:
            items = list(range(20))
            assert backend.map(SquareTask(), items) == [x * x for x in items]

    def test_batch_smaller_than_worker_count(self):
        with ProcessPoolBackend(workers=4) as backend:
            assert backend.map(SquareTask(), [5, 6]) == [25, 36]

    def test_single_item_chunks(self):
        with ProcessPoolBackend(workers=2, chunk_size=1) as backend:
            assert backend.map(SquareTask(), [1, 2, 3, 4, 5]) == [1, 4, 9, 16, 25]

    def test_empty_batch_needs_no_pool(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.map(SquareTask(), []) == []
        assert backend._pool is None  # lazily created only when needed
        backend.close()

    def test_worker_exception_propagates(self):
        with ProcessPoolBackend(workers=2, chunk_size=2) as backend:
            with pytest.raises(ValueError, match="boom at three"):
                backend.map(ExplodingTask(), [1, 2, 3, 4])

    def test_reusable_after_close(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.map(SquareTask(), [2]) == [4]
        backend.close()
        assert backend.map(SquareTask(), [3]) == [9]
        backend.close()


# ---------------------------------------------------------------------------
class TestCostBatch:
    def test_matches_serial_cost(self, chain):
        problem = make_problem(chain)
        rng_problem = make_problem(chain)
        import random

        rng = random.Random(0)
        genomes = [rng_problem.random_genome(rng) for _ in range(6)]
        expected = [problem.cost(g) for g in genomes]
        with ProcessPoolBackend(workers=2) as backend:
            fresh = make_problem(chain)
            assert fresh.cost_batch(genomes, backend) == expected

    def test_deduplicates_and_memoizes(self, chain):
        import random

        problem = make_problem(chain)
        genome = problem.random_genome(random.Random(1))
        with ProcessPoolBackend(workers=2) as backend:
            first = problem.cost_batch([genome, genome, genome], backend)
        assert first[0] == first[1] == first[2]
        # every later batch is answered from the parent cache: a backend
        # that refuses all work proves no evaluation escapes the cache.
        again = problem.cost_batch([genome, genome], ForbiddenBackend())
        assert again == first[:2]

    def test_merges_worker_cache_stats(self, chain):
        import random

        problem = make_problem(chain)
        genomes = [problem.random_genome(random.Random(s)) for s in range(4)]
        with ProcessPoolBackend(workers=2) as backend:
            problem.cost_batch(genomes, backend)
        # all pricing ran in workers, yet the parent counters reflect it
        assert problem.evaluator.num_profile_calls > 0
        assert problem.evaluator.num_cost_calls > 0


# ---------------------------------------------------------------------------
class TestEngineDeterminism:
    CONFIG = dict(population_size=10, generations=4, seed=7, record_samples=True)

    def test_parallel_run_is_bit_identical(self, chain):
        serial = GeneticEngine(
            make_problem(chain), GAConfig(**self.CONFIG)
        ).run()
        for workers in (2, 4):
            parallel = GeneticEngine(
                make_problem(chain), GAConfig(**self.CONFIG, workers=workers)
            ).run()
            assert parallel.best_cost == serial.best_cost
            assert parallel.best_genome == serial.best_genome
            assert parallel.history == serial.history
            assert parallel.num_evaluations == serial.num_evaluations
            assert parallel.samples == serial.samples

    def test_parallel_co_exploration_is_bit_identical(self, diamond):
        serial = GeneticEngine(
            make_co_problem(diamond), GAConfig(**self.CONFIG)
        ).run()
        with ProcessPoolBackend(workers=2, chunk_size=3) as backend:
            parallel = GeneticEngine(
                make_co_problem(diamond), GAConfig(**self.CONFIG),
                backend=backend,
            ).run()
        assert parallel.best_cost == serial.best_cost
        assert parallel.best_genome == serial.best_genome
        assert parallel.history == serial.history
        assert parallel.samples == serial.samples

    def test_explicit_backend_is_shared_not_closed(self, chain):
        with ProcessPoolBackend(workers=2) as backend:
            config = GAConfig(population_size=8, generations=2, seed=3)
            first = GeneticEngine(
                make_problem(chain), config, backend=backend
            ).run()
            second = GeneticEngine(
                make_problem(chain), config, backend=backend
            ).run()
            assert first.best_cost == second.best_cost


class TestSampleBudget:
    def test_num_evaluations_exactly_max_samples(self, chain):
        for workers in (1, 2):
            config = GAConfig(
                population_size=10, generations=50, seed=2,
                max_samples=35, workers=workers,
            )
            result = GeneticEngine(make_problem(chain), config).run()
            assert result.num_evaluations == 35
            assert all(index <= 35 for index, _ in result.history)

    def test_budget_smaller_than_population(self, chain):
        config = GAConfig(
            population_size=10, generations=5, seed=0, max_samples=4
        )
        result = GeneticEngine(make_problem(chain), config).run()
        assert result.num_evaluations == 4

    def test_telemetry_stops_at_budget(self, chain):
        config = GAConfig(
            population_size=8, generations=20, seed=5,
            max_samples=20, record_samples=True, workers=2,
        )
        result = GeneticEngine(make_problem(chain), config).run()
        assert len(result.samples) == 20
        assert result.samples[-1].index == 20

    def test_invalid_budget_and_worker_configs_rejected(self):
        with pytest.raises(SearchError):
            GAConfig(max_samples=0)
        with pytest.raises(SearchError):
            GAConfig(workers=-1)


# ---------------------------------------------------------------------------
class TestOtherLoops:
    def test_nsga_front_is_bit_identical(self, diamond):
        space = CapacitySpace.paper_separate()

        def run(workers):
            return nsga2_co_optimize(
                Evaluator(diamond),
                space,
                metric=Metric.ENERGY,
                config=NSGAConfig(
                    population_size=8, generations=3, seed=11, workers=workers
                ),
            )

        serial, parallel = run(1), run(2)
        assert [p.objectives for p in parallel.front] == [
            p.objectives for p in serial.front
        ]
        assert [p.genome.key() for p in parallel.front] == [
            p.genome.key() for p in serial.front
        ]
        assert parallel.num_evaluations == serial.num_evaluations
        assert parallel.history == serial.history

    def test_island_search_is_bit_identical(self, chain):
        config = IslandConfig(
            base=GAConfig(population_size=6, generations=2, seed=0),
            num_islands=2, epochs=2, epoch_generations=2, migrants=1, seed=9,
        )
        serial = island_search(make_problem(chain), config)
        with ProcessPoolBackend(workers=2) as backend:
            parallel = island_search(
                make_problem(chain), config, backend=backend
            )
        assert parallel.best_cost == serial.best_cost
        assert parallel.best_genome == serial.best_genome
        assert parallel.num_evaluations == serial.num_evaluations
