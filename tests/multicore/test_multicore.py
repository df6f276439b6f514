"""Multi-core and batch extension (Sec 5.4.2-5.4.3).

Batch pricing on cores and batch is pinned against the reference in
``tests/cost/test_batch_pricing.py`` (``TestPopulationIdentity``).
"""

import pytest

from repro.config import AcceleratorConfig, MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.errors import ConfigError
from repro.multicore.crossbar import crossbar_cycles, crossbar_energy_pj
from repro.multicore.weight_sharing import shard_weights
from repro.partition.partition import Partition
from repro.units import kb

from ..conftest import build_chain


@pytest.fixture
def chain():
    return build_chain(depth=4, size=32, channels=8)


def make_evaluator(chain, cores=1, batch=1, shared_kb=256):
    accel = AcceleratorConfig(
        memory=MemoryConfig.shared(kb(shared_kb)), num_cores=cores
    )
    return Evaluator(chain, accel, batch=batch)


class TestWeightSharding:
    def test_shard_split(self):
        plan = shard_weights(1000, 4)
        assert plan.shard_bytes == 250
        assert plan.per_core_buffer_bytes == 250

    def test_rotation_traffic(self):
        plan = shard_weights(1000, 4)
        assert plan.rotation_bytes_per_sample == 3000

    def test_single_core_no_rotation(self):
        plan = shard_weights(1000, 1)
        assert plan.rotation_bytes_per_sample == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            shard_weights(1000, 0)
        with pytest.raises(ConfigError):
            shard_weights(-1, 2)


class TestCrossbar:
    def test_energy_linear(self):
        accel = AcceleratorConfig()
        assert crossbar_energy_pj(accel, 100) == 100 * accel.crossbar_pj_per_byte

    def test_cycles(self):
        accel = AcceleratorConfig()
        bytes_per_cycle = accel.crossbar_bandwidth / accel.frequency_hz
        assert crossbar_cycles(accel, 640) == pytest.approx(640 / bytes_per_cycle)


class TestMultiCoreEvaluator:
    def test_rejects_bad_batch(self, chain):
        with pytest.raises(ConfigError):
            make_evaluator(chain, batch=0)

    def test_single_core_batch1_matches_pattern(self, chain):
        evaluator = make_evaluator(chain, cores=1, batch=1)
        cost = evaluator.subgraph_cost({"conv1"})
        assert cost.feasible
        assert cost.energy.crossbar_pj == 0.0

    def test_more_cores_cut_latency(self, chain):
        members = frozenset(chain.compute_names)
        one = make_evaluator(chain, cores=1).subgraph_cost(members)
        four = make_evaluator(chain, cores=4).subgraph_cost(members)
        assert four.latency_cycles < one.latency_cycles

    def test_crossbar_energy_appears_beyond_one_core(self, chain):
        members = frozenset(chain.compute_names)
        two = make_evaluator(chain, cores=2).subgraph_cost(members)
        assert two.energy.crossbar_pj > 0

    def test_multi_core_eases_capacity_pressure(self, chain):
        members = frozenset(chain.compute_names)
        # A buffer too small for one core fits when split over four.
        small = 8
        one = make_evaluator(chain, cores=1, shared_kb=small)
        four = make_evaluator(chain, cores=4, shared_kb=small)
        assert four.subgraph_cost(members).feasible or not one.subgraph_cost(
            members
        ).feasible

    def test_batch_scales_io_not_weights(self, chain):
        members = frozenset(chain.compute_names)
        b1 = make_evaluator(chain, batch=1).subgraph_cost(members)
        b4 = make_evaluator(chain, batch=4).subgraph_cost(members)
        profile = b1.profile
        assert b4.ema_bytes == b1.weight_ema_bytes + 4 * profile.io_bytes

    def test_batch_latency_never_superlinear(self, chain):
        members = frozenset(chain.compute_names)
        b1 = make_evaluator(chain, batch=1).subgraph_cost(members)
        b8 = make_evaluator(chain, batch=8).subgraph_cost(members)
        assert b8.latency_cycles <= 8 * b1.latency_cycles

    def test_batch_latency_sublinear_when_weight_bound(self, chain):
        # Strict sub-linearity needs a DRAM-bound baseline: the one-time
        # weight load amortizes over the batch.
        members = frozenset(chain.compute_names)
        accel = AcceleratorConfig(
            memory=MemoryConfig.shared(kb(256)), dram_bandwidth=0.1e9
        )
        b1 = Evaluator(chain, accel, batch=1).subgraph_cost(members)
        b8 = Evaluator(chain, accel, batch=8).subgraph_cost(members)
        assert b8.latency_cycles < 8 * b1.latency_cycles

    def test_accelerator_core_count_prices_per_core(self, chain):
        """A plain ``Evaluator`` reads ``num_cores`` from its accelerator."""
        members = frozenset(chain.compute_names)
        memory = MemoryConfig.shared(kb(256))
        one = Evaluator(chain, AcceleratorConfig(memory=memory))
        two = Evaluator(chain, AcceleratorConfig(memory=memory, num_cores=2))
        single, split = one.subgraph_cost(members), two.subgraph_cost(members)
        assert split.compute_cycles == single.compute_cycles / 2
        rotation = single.profile.weight_bytes  # W * (C - 1) at C = 2
        assert split.energy.crossbar_pj == rotation * two.accel.crossbar_pj_per_byte
        # A buffer one core's footprint overflows holds each core's half.
        tight = MemoryConfig.shared(single.profile.min_activation_bytes - 1)
        assert not one.feasible(members, tight)
        assert two.feasible(members, tight)
        assert two.subgraph_cost(members, tight).feasible

    def test_partition_evaluation_works(self, chain):
        evaluator = make_evaluator(chain, cores=2, batch=2)
        cost = evaluator.evaluate(Partition.singletons(chain).subgraph_sets)
        assert cost.feasible
        assert cost.energy_pj > 0

    def test_infeasible_when_tiny(self, chain):
        evaluator = make_evaluator(chain, cores=1, shared_kb=1)
        cost = evaluator.subgraph_cost(frozenset(chain.compute_names))
        assert not cost.feasible
