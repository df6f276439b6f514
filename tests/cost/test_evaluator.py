"""The evaluation environment: pricing subgraphs and partitions."""

import pytest

from repro.config import AcceleratorConfig, MemoryConfig
from repro.cost import energy
from repro.cost.evaluator import Evaluator
from repro.cost.reference import price_subgraph_reference
from repro.partition.partition import Partition
from repro.units import kb, mb

from ..conftest import build_chain, build_diamond


@pytest.fixture
def chain():
    return build_chain(depth=3, size=32, channels=8)


@pytest.fixture
def evaluator(chain):
    accel = AcceleratorConfig(memory=MemoryConfig.separate(kb(256), kb(256)))
    return Evaluator(chain, accel)


class TestSubgraphCost:
    def test_feasible_single_layer(self, evaluator):
        cost = evaluator.subgraph_cost({"conv1"})
        assert cost.feasible
        assert cost.ema_bytes >= cost.profile.io_bytes

    def test_whole_chain_reaches_ema_floor(self, chain, evaluator):
        members = frozenset(chain.compute_names)
        cost = evaluator.subgraph_cost(members)
        floor = (
            chain.total_weight_bytes
            + chain.model_input_bytes()
            + chain.model_output_bytes()
        )
        assert cost.feasible
        assert cost.ema_bytes == floor

    def test_infeasible_when_buffer_tiny(self, chain):
        accel = AcceleratorConfig(memory=MemoryConfig.separate(64, 64))
        tiny = Evaluator(chain, accel)
        cost = tiny.subgraph_cost(frozenset(chain.compute_names))
        assert not cost.feasible
        assert cost.latency_cycles == float("inf")

    def test_weight_caching_reduces_ema(self, chain):
        roomy = Evaluator(
            chain, AcceleratorConfig(memory=MemoryConfig.separate(kb(16), kb(256)))
        )
        starved = Evaluator(
            chain, AcceleratorConfig(memory=MemoryConfig.separate(kb(16), 128))
        )
        members = frozenset(chain.compute_names)
        assert (
            roomy.subgraph_cost(members).ema_bytes
            <= starved.subgraph_cost(members).ema_bytes
        )

    def test_shared_buffer_trades_activations_for_weights(self, chain):
        shared = Evaluator(
            chain, AcceleratorConfig(memory=MemoryConfig.shared(kb(64)))
        )
        cost = shared.subgraph_cost({"conv1"})
        assert cost.feasible
        assert cost.cached_weight_bytes <= kb(64)

    def test_costs_are_cached(self, evaluator):
        evaluator.subgraph_cost({"conv1"})
        calls = evaluator.num_cost_calls
        evaluator.subgraph_cost({"conv1"})
        assert evaluator.num_cost_calls == calls

    def test_memory_variants_not_conflated(self, chain, evaluator):
        small = MemoryConfig.separate(kb(64), kb(64))
        large = MemoryConfig.separate(mb(2), mb(2))
        members = frozenset(chain.compute_names)
        cost_small = evaluator.subgraph_cost(members, small)
        cost_large = evaluator.subgraph_cost(members, large)
        assert cost_large.ema_bytes <= cost_small.ema_bytes

    def test_only_the_winning_tile_is_priced(self, monkeypatch):
        """Tiles are ranked on EMA; energy and latency price the winner.

        Under this shared buffer the EMA improves twice along the tile
        options, so the oracle prices three tiles; the evaluator prices
        one, with the same result.
        """
        built = []

        class CountedBreakdown(energy.EnergyBreakdown):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(energy, "EnergyBreakdown", CountedBreakdown)
        chain = build_chain(depth=4, size=32, channels=16)
        members = frozenset(chain.compute_names)
        memory = MemoryConfig.shared(14336)
        evaluator = Evaluator(chain)
        cost = evaluator.subgraph_cost(members, memory)
        assert len(built) == 1
        built.clear()
        reference = price_subgraph_reference(
            evaluator.accel, evaluator.profile(members), memory
        )
        assert len(built) >= 3  # at least one per tile the oracle priced
        assert cost == reference


class TestPartitionCost:
    def test_aggregates_sum(self, chain, evaluator):
        partition = Partition.singletons(chain)
        cost = evaluator.evaluate(partition.subgraph_sets)
        assert cost.num_subgraphs == 3
        assert cost.ema_bytes == sum(c.ema_bytes for c in cost.subgraphs)

    def test_fused_cheaper_than_singletons(self, chain, evaluator):
        singles = evaluator.evaluate(Partition.singletons(chain).subgraph_sets)
        fused = evaluator.evaluate(Partition.whole_graph(chain).subgraph_sets)
        assert fused.ema_bytes <= singles.ema_bytes

    def test_infeasible_propagates(self, chain):
        accel = AcceleratorConfig(memory=MemoryConfig.separate(64, 64))
        tiny = Evaluator(chain, accel)
        cost = tiny.evaluate(Partition.whole_graph(chain).subgraph_sets)
        assert not cost.feasible

    def test_bandwidth_report_present(self, chain, evaluator):
        cost = evaluator.evaluate(Partition.singletons(chain).subgraph_sets)
        assert cost.bandwidth.average_bytes_per_second > 0
        assert len(cost.bandwidth.windows) == 3

    def test_energy_positive_and_ordered(self, chain, evaluator):
        singles = evaluator.evaluate(Partition.singletons(chain).subgraph_sets)
        fused = evaluator.evaluate(Partition.whole_graph(chain).subgraph_sets)
        assert 0 < fused.energy_pj <= singles.energy_pj


class TestDiamondWriteback:
    def test_branch_subgraphs_account_shared_producer(self):
        graph = build_diamond()
        accel = AcceleratorConfig(memory=MemoryConfig.separate(kb(512), kb(512)))
        evaluator = Evaluator(graph, accel)
        partition = Partition.from_groups(
            graph, [{"stem"}, {"left"}, {"right"}, {"join"}]
        )
        cost = evaluator.evaluate(partition.subgraph_sets)
        stem_cost = cost.subgraphs[0]
        # stem's output feeds both branches outside its subgraph.
        assert stem_cost.profile.output_bytes == 32 * 32 * 8
