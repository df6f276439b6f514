"""Energy, latency, bandwidth, area, and objective models."""

import pytest

from repro.config import AcceleratorConfig, BufferMode, MemoryConfig
from repro.cost.area import buffer_area_mm2
from repro.cost.bandwidth import bandwidth_report
from repro.cost.energy import EnergyBreakdown, subgraph_energy
from repro.cost.evaluator import Evaluator, PartitionCost
from repro.cost.latency import compute_cycles, dram_cycles
from repro.cost.objective import (
    DEFAULT_ALPHA,
    Metric,
    co_opt_objective,
    partition_objective,
)
from repro.partition.partition import Partition
from repro.units import kb, mb

from ..conftest import build_chain


@pytest.fixture
def accel():
    return AcceleratorConfig()


class TestEnergy:
    def test_dram_dominates_for_io_heavy(self, accel):
        energy = subgraph_energy(
            accel,
            accel.memory,
            ema_bytes=10_000_000,
            activation_traffic_bytes=1000,
            weight_write_bytes=1000,
            weight_read_bytes=1000,
            macs=1000,
        )
        assert energy.dram_pj > energy.sram_activation_pj
        assert energy.dram_pj == 10_000_000 * 100.0

    def test_total_is_sum(self, accel):
        energy = subgraph_energy(
            accel, accel.memory, 100, 100, 100, 100, 100
        )
        assert energy.total_pj == pytest.approx(
            energy.dram_pj
            + energy.sram_activation_pj
            + energy.sram_weight_pj
            + energy.mac_pj
        )

    def test_crossbar_default_zero(self):
        energy = EnergyBreakdown(1, 1, 1, 1)
        assert energy.crossbar_pj == 0.0
        assert energy.total_pj == 4

    def test_bigger_sram_costs_more_per_byte(self, accel):
        small = subgraph_energy(
            accel, MemoryConfig.shared(kb(128)), 0, 1000, 0, 0, 0
        )
        large = subgraph_energy(
            accel, MemoryConfig.shared(mb(3)), 0, 1000, 0, 0, 0
        )
        assert large.sram_activation_pj > small.sram_activation_pj


class TestLatency:
    def test_dram_cycles_match_16gbs(self, accel):
        # 16 bytes/cycle at 1 GHz and 16 GB/s.
        assert dram_cycles(accel, 1600) == pytest.approx(100.0)

    def test_utilization_slows_compute(self):
        full = AcceleratorConfig(pe_utilization=1.0)
        half = AcceleratorConfig(pe_utilization=0.5)
        assert compute_cycles(half, 10**6) == 2 * compute_cycles(full, 10**6)


class TestBandwidth:
    def test_single_window(self):
        report = bandwidth_report([1000], [500], [500], [1e-6])
        # Window 0 carries io + its own first weight load.
        assert report.windows[0].bytes_required == 1500
        assert report.peak_bytes_per_second == pytest.approx(1.5e9)

    def test_prefetch_shifts_next_weights(self):
        report = bandwidth_report(
            [1000, 1000], [500, 700], [500, 700], [1e-6, 1e-6]
        )
        assert report.windows[0].bytes_required == 1000 + 500 + 700
        assert report.windows[1].bytes_required == 1000

    def test_restreaming_stays_in_own_window(self):
        report = bandwidth_report([0, 0], [100, 100], [100, 900], [1e-6, 1e-6])
        # Second window re-streams 800 bytes beyond the prefetched load.
        assert report.windows[1].bytes_required == 800

    def test_window_spans_neighbors(self):
        report = bandwidth_report(
            [100, 100, 100], [0, 0, 0], [0, 0, 0], [1e-6, 3e-6, 5e-6]
        )
        assert report.windows[1].window_seconds == pytest.approx(9e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_report([1], [1, 2], [1], [1.0])


class TestArea:
    def test_separate_sums(self, accel):
        memory = MemoryConfig.separate(mb(1), mb(1))
        assert buffer_area_mm2(accel, memory) == pytest.approx(
            2 * accel.sram_area_mm2(mb(1))
        )

    def test_shared_single(self, accel):
        memory = MemoryConfig.shared(mb(2))
        assert buffer_area_mm2(accel, memory) == pytest.approx(
            accel.sram_area_mm2(mb(2))
        )


class TestObjectives:
    @pytest.fixture
    def cost(self):
        graph = build_chain(depth=2, size=16, channels=4)
        evaluator = Evaluator(
            graph, AcceleratorConfig(memory=MemoryConfig.shared(kb(64)))
        )
        return evaluator.evaluate(Partition.singletons(graph).subgraph_sets)

    def test_partition_objective_selects_metric(self, cost):
        assert partition_objective(cost, Metric.EMA) == cost.ema_bytes
        assert partition_objective(cost, Metric.ENERGY) == cost.energy_pj
        assert partition_objective(cost, Metric.LATENCY) == cost.latency_cycles

    def test_formula2_combines_capacity(self, cost):
        memory = MemoryConfig.shared(kb(64))
        value = co_opt_objective(cost, memory, alpha=0.002, metric=Metric.ENERGY)
        assert value == pytest.approx(kb(64) + 0.002 * cost.energy_pj)

    def test_default_alpha_matches_paper(self):
        assert DEFAULT_ALPHA == 0.002

    def test_infeasible_is_infinite(self, cost):
        broken = PartitionCost(
            feasible=False,
            num_subgraphs=1,
            ema_bytes=1.0,
            energy_pj=1.0,
            latency_cycles=1.0,
            bandwidth=cost.bandwidth,
            subgraphs=cost.subgraphs,
        )
        assert partition_objective(broken) == float("inf")
        assert co_opt_objective(broken, MemoryConfig.shared(kb(64))) == float("inf")
