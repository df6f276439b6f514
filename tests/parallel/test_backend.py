"""The cell runner, and the batch scoring every search loop relies on.

``run_suite`` maps a campaign's cells through a :class:`SerialBackend`
or a :class:`ProcessPoolBackend`: results come back in input order,
worker exceptions propagate, and a dead worker tears the pool down so
the next round starts on a fresh one. Inside a search, a batch is
scored in the owning process by :meth:`OptimizationProblem.cost_batch`,
which prices each distinct unmemoized genome once.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.parallel.backend as backend_module
from repro.config import MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.errors import ConfigError, SearchError
from repro.ga.engine import GAConfig, GeneticEngine
from repro.ga.problem import OptimizationProblem, cached_map
from repro.parallel import ProcessPoolBackend, SerialBackend, resolve_backend
from repro.units import kb

from ..conftest import build_chain


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


class DyingTask:
    """Hard-exits its worker process, like an OOM kill."""

    def __call__(self, x: int) -> int:
        os._exit(23)


class NegatedTask:
    def __init__(self, task) -> None:
        self.task = task

    def __call__(self, x: int) -> int:
        return -self.task(x)


# Wrappers installed on the worker plumbing's module names, the way
# perfbench's tracer installs its own.
_INIT_WORKER = backend_module._init_worker
_RUN_CHUNK = backend_module._run_chunk


def negating_init_worker(task) -> None:
    _INIT_WORKER(NegatedTask(task))


def tagging_run_chunk(chunk: list) -> list:
    return [("chunk", result) for result in _RUN_CHUNK(chunk)]


# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def chain():
    return build_chain(depth=6)


@pytest.fixture
def pool():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture
def chunks(monkeypatch):
    """Every chunk a pool submits, in submission order."""
    submitted: list[list] = []
    submit = ProcessPoolExecutor.submit

    def recording(executor, fn, /, *args, **kwargs):
        submitted.append(list(args[0]))
        return submit(executor, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    return submitted


def make_problem(graph) -> OptimizationProblem:
    return OptimizationProblem(
        evaluator=Evaluator(graph),
        metric=Metric.EMA,
        alpha=None,
        fixed_memory=MemoryConfig.separate(kb(64), kb(64)),
    )


# ---------------------------------------------------------------------------
class TestResolveBackend:
    @pytest.mark.parametrize("workers", [0, 1])
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


class TestSerialBackend:
    def test_maps_in_order(self):
        assert SerialBackend().map(SquareTask(), [1, 2, 3]) == [1, 4, 9]

    def test_empty_batch(self):
        assert SerialBackend().map(SquareTask(), []) == []


class TestProcessPoolBackend:
    def test_preserves_input_order(self, pool):
        items = list(range(20))
        assert pool.map(SquareTask(), items) == [x * x for x in items]

    def test_four_chunks_per_worker(self, pool, chunks):
        # The rule that places suite cells: 20 items on 2 workers go out
        # as six chunks of three, then one of two, in input order.
        items = list(range(20))
        pool.map(SquareTask(), items)
        assert [len(chunk) for chunk in chunks] == [3] * 6 + [2]
        assert [item for chunk in chunks for item in chunk] == items

    def test_single_item_chunks(self, pool, chunks):
        # No more than four items per worker: one item per chunk.
        items = [7, 8, 9, 10, 11, 12, 13, 14]
        assert pool.map(SquareTask(), items) == [x * x for x in items]
        assert chunks == [[item] for item in items]

    def test_batch_smaller_than_worker_count(self):
        backend = ProcessPoolBackend(workers=4)
        try:
            assert backend.map(SquareTask(), [5, 6]) == [25, 36]
        finally:
            backend.close()

    def test_empty_batch_needs_no_pool(self, pool):
        assert pool.map(SquareTask(), []) == []
        assert pool._pool is None  # lazily created only when needed

    def test_worker_exception_propagates(self, pool):
        with pytest.raises(ValueError, match="boom at three"):
            pool.map(ExplodingTask(), [1, 2, 3, 4])

    def test_reusable_after_close(self, pool):
        assert pool.map(SquareTask(), [2]) == [4]
        pool.close()
        assert pool.map(SquareTask(), [3]) == [9]

    def test_pool_is_keyed_to_the_task(self, pool):
        square = SquareTask()
        assert pool.map(square, [2]) == [4]
        first = pool._pool
        assert pool.map(square, [3]) == [9]
        assert pool._pool is first
        # A different task ships through the initializer of a new pool.
        assert pool.map(NegatedTask(square), [3]) == [-9]
        assert pool._pool is not first

    def test_worker_plumbing_is_looked_up_by_name(self, monkeypatch):
        # A wrapper installed on ``_init_worker`` or ``_run_chunk`` sees
        # every call: the pool looks both up when it is built and when
        # it submits a chunk.
        monkeypatch.setattr(backend_module, "_init_worker", negating_init_worker)
        monkeypatch.setattr(backend_module, "_run_chunk", tagging_run_chunk)
        backend = ProcessPoolBackend(workers=2)
        try:
            assert backend.map(SquareTask(), [1, 2, 3]) == [
                ("chunk", -1), ("chunk", -4), ("chunk", -9),
            ]
        finally:
            backend.close()

    def test_dead_worker_tears_the_pool_down(self, pool):
        with pytest.raises(BrokenProcessPool):
            pool.map(DyingTask(), [1, 2, 3])
        assert pool._pool is None
        # The next map builds a fresh pool instead of inheriting the
        # broken one.
        assert pool.map(SquareTask(), [4, 5]) == [16, 25]


# ---------------------------------------------------------------------------
class TestCostBatch:
    def test_matches_serial_cost(self, chain):
        rng = random.Random(0)
        genomes = [make_problem(chain).random_genome(rng) for _ in range(6)]
        expected = [make_problem(chain).cost(g) for g in genomes]
        assert make_problem(chain).cost_batch(genomes) == expected

    def test_deduplicates_and_memoizes(self, chain, monkeypatch):
        problem = make_problem(chain)
        genome = problem.random_genome(random.Random(1))
        other = problem.random_genome(random.Random(2))
        primed = []
        prime = problem.prime
        monkeypatch.setattr(
            problem, "prime",
            lambda genomes: (primed.append(list(genomes)), prime(genomes)),
        )
        first = problem.cost_batch([genome, other, genome])
        assert first[0] == first[2]
        # One prime per batch, on the unique misses in first-seen order.
        assert primed == [[genome, other]]
        # A later batch is answered from the fitness cache alone: a
        # summarize call would mean an evaluation escaped it.
        monkeypatch.setattr(
            problem.evaluator, "summarize",
            lambda *args: pytest.fail("memoized genome was re-evaluated"),
        )
        assert problem.cost_batch([other, genome]) == [first[1], first[0]]
        assert primed == [[genome, other]]


class KeyedGenome:
    def __init__(self, name: str) -> None:
        self.name = name

    def key(self) -> tuple:
        return (self.name,)


class PrimeRecorder:
    """Stands in for the problem: ``cached_map`` only primes it."""

    def __init__(self) -> None:
        self.primed: list[list[str]] = []

    def prime(self, genomes) -> None:
        self.primed.append([genome.name for genome in genomes])


class TestCachedMap:
    def test_unique_misses_are_primed_evaluated_and_stored_once(self):
        problem = PrimeRecorder()
        cache = {("b",): "cached b"}
        evaluated, stored = [], []

        def evaluate(genome):
            evaluated.append(genome.name)
            return genome.name.upper()

        def store(key, genome, value):
            stored.append(key)
            cache[key] = ("point", value)
            return cache[key]

        a, b, c = KeyedGenome("a"), KeyedGenome("b"), KeyedGenome("c")
        results = cached_map(problem, [c, b, a, c, a], evaluate, cache.get, store)
        assert results == [
            ("point", "C"), "cached b", ("point", "A"), ("point", "C"),
            ("point", "A"),
        ]
        # A repeat gets the very object ``store`` returned for its key.
        assert results[0] is results[3] and results[2] is results[4]
        assert problem.primed == [["c", "a"]]
        assert evaluated == ["c", "a"]
        assert stored == [("c",), ("a",)]

    def test_batch_of_hits_skips_prime(self):
        problem = PrimeRecorder()
        cache = {("a",): 1.0, ("b",): 2.0}

        def refuse(*args):
            pytest.fail("a cached genome was evaluated")

        genomes = [KeyedGenome("b"), KeyedGenome("a"), KeyedGenome("b")]
        assert cached_map(problem, genomes, refuse, cache.get, refuse) == [
            2.0, 1.0, 2.0,
        ]
        assert problem.primed == []


# ---------------------------------------------------------------------------
class TestSampleBudget:
    def test_num_evaluations_exactly_max_samples(self, chain):
        config = GAConfig(
            population_size=10, generations=50, seed=2, max_samples=35,
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
            max_samples=20, record_samples=True,
        )
        result = GeneticEngine(make_problem(chain), config).run()
        assert len(result.samples) == 20
        assert result.samples[-1].index == 20

    def test_invalid_budget_rejected(self):
        with pytest.raises(SearchError):
            GAConfig(max_samples=0)
