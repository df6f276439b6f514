"""The exploration schemes: fixed, two-step, co-opt (Sec 5.3)."""

import pytest

from repro.config import AcceleratorConfig, BufferMode, MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric, co_opt_objective
from repro.dse.cocco import cocco_co_optimize, cocco_partition_only
from repro.dse.fixed import optimize_fixed
from repro.dse.results import DSEResult
from repro.dse.sa import sa_co_optimize
from repro.dse.two_step import grid_search_ga, random_search_ga
from repro.ga.annealing import SAConfig
from repro.ga.engine import GAConfig
from repro.search_space import CapacitySpace
from repro.units import kb

from ..conftest import build_chain

SMALL_GA = GAConfig(population_size=8, generations=3, seed=0)


@pytest.fixture
def evaluator():
    graph = build_chain(depth=5, size=32, channels=8)
    return Evaluator(graph, AcceleratorConfig())


@pytest.fixture
def space():
    return CapacitySpace.paper_shared()


class TestFixed:
    def test_reports_formula2(self, evaluator):
        memory = MemoryConfig.shared(kb(512))
        result = optimize_fixed(
            evaluator, memory, ga_config=SMALL_GA, method_name="Buf(S)"
        )
        assert result.method == "Buf(S)"
        assert result.memory == memory
        expected = co_opt_objective(
            result.partition_cost, memory, 0.002, Metric.ENERGY
        )
        assert result.best_cost == pytest.approx(expected)

    def test_history_in_formula2_units(self, evaluator):
        memory = MemoryConfig.shared(kb(512))
        result = optimize_fixed(evaluator, memory, ga_config=SMALL_GA)
        assert all(cost >= memory.total_bytes for _, cost in result.history)


class TestTwoStep:
    def test_rs_returns_best_candidate(self, evaluator, space):
        result = random_search_ga(
            evaluator, space, num_candidates=3, ga_config=SMALL_GA, seed=1
        )
        assert result.method == "RS+GA"
        assert result.memory.shared_buffer_bytes in space.shared_candidates
        assert result.num_evaluations > 0

    def test_gs_walks_large_to_small(self, evaluator, space):
        result = grid_search_ga(
            evaluator, space, stride=16, max_candidates=3, ga_config=SMALL_GA
        )
        assert result.method == "GS+GA"
        assert result.best_cost < float("inf")

    def test_cumulative_history_monotone(self, evaluator, space):
        result = random_search_ga(
            evaluator, space, num_candidates=3, ga_config=SMALL_GA, seed=2
        )
        costs = [c for _, c in result.history]
        assert costs == sorted(costs, reverse=True)
        samples = [s for s, _ in result.history]
        assert samples == sorted(samples)

    def test_candidate_nothing_fits_in_is_folded(self, evaluator):
        # The grid walks large to small; its last candidate holds no
        # layer, so that candidate's GA finds no feasible genome and
        # reports inf, and the fold keeps the larger candidate's result.
        space = CapacitySpace(mode=BufferMode.SHARED, shared_candidates=(64, kb(512)))
        result = grid_search_ga(
            evaluator, space, stride=1, max_candidates=2, ga_config=SMALL_GA
        )
        assert result.memory == MemoryConfig.shared(kb(512))
        assert result.best_cost < float("inf")
        assert result.num_evaluations == 2 * 4 * SMALL_GA.population_size


class TestCoOpt:
    def test_cocco_partition_only(self, evaluator):
        memory = MemoryConfig.shared(kb(512))
        result = cocco_partition_only(
            evaluator, memory, metric=Metric.EMA, ga_config=SMALL_GA
        )
        assert result.partition_cost.feasible
        assert result.best_cost == result.partition_cost.ema_bytes

    def test_cocco_co_optimize_without_refine(self, evaluator, space):
        result = cocco_co_optimize(
            evaluator, space, ga_config=SMALL_GA, refine=False
        )
        assert result.method == "Cocco"
        assert result.memory.mode is BufferMode.SHARED

    def test_cocco_refine_never_hurts(self, evaluator, space):
        raw = cocco_co_optimize(
            evaluator, space, ga_config=SMALL_GA, refine=False
        )
        refined = cocco_co_optimize(
            evaluator, space, ga_config=SMALL_GA, refine=True
        )
        assert refined.best_cost <= raw.best_cost + 1e-9

    def test_sa_co_optimize(self, evaluator, space):
        result = sa_co_optimize(
            evaluator, space, sa_config=SAConfig(steps=100, seed=0)
        )
        assert result.method == "SA"
        assert result.best_cost < float("inf")


class TestDSEResult:
    def test_describe_memory_shared(self, evaluator, space):
        result = cocco_co_optimize(
            evaluator, space, ga_config=SMALL_GA, refine=False
        )
        assert result.describe_memory().endswith("KB")

    def test_samples_to_reach(self):
        result = DSEResult(
            method="x",
            best_genome=None,
            best_cost=1.0,
            partition_cost=None,
            num_evaluations=100,
            history=[(10, 5.0), (50, 2.0), (80, 1.0)],
        )
        assert result.samples_to_reach(5.0) == 10
        assert result.samples_to_reach(1.5) == 80
        assert result.samples_to_reach(0.5) is None
