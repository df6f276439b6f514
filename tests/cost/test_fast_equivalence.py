"""Fast-pipeline equivalence: bit-identical costs vs the naive reference.

Property-style randomized checks that the optimized evaluation pipeline
(single-pass profiling, hoisted pricing, incremental summaries) produces
*bit-identical* results to the retained reference implementation in
:mod:`repro.cost.reference`, across random graphs, random partitions,
a spread of memory configurations, and core counts and batch sizes.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryConfig
from repro.cost.ema import profile_subgraph, profile_subgraph_reference
from repro.cost.evaluator import Evaluator, PartitionSummary
from repro.cost.reference import (
    ReferenceEvaluator,
    evaluate_partition_reference,
)
from repro.experiments.common import paper_accelerator
from repro.graphs.graph import ComputationGraph
from repro.graphs.zoo import get_model
from repro.partition.random_init import random_partition
from repro.units import kb, mb

from ..conftest import build_random_dag, fresh_copy, random_dags

MEMORIES = (
    MemoryConfig.separate(mb(1), kb(1152)),
    MemoryConfig.separate(kb(64), kb(64)),
    MemoryConfig.shared(kb(512)),
    MemoryConfig.shared(kb(32)),
    # Too small for one core to hold most random-DAG subgraphs, while
    # the per-core shares of a four-core split fit.
    MemoryConfig.separate(512, 256),
    MemoryConfig.shared(512),
)

#: ``(num_cores, batch)`` points every pricing path must agree on.
CORES_BATCH = ((1, 1), (2, 2), (4, 8))


def _without_weights(graph: ComputationGraph) -> ComputationGraph:
    """The same DAG with every weight zeroed: all tile options tie on EMA."""
    twin = ComputationGraph(f"{graph.name}-noweights")
    for name in graph.topological_order():
        twin.add_layer(
            replace(graph.layer(name), weight_bytes=0), graph.predecessors(name)
        )
    return twin


@st.composite
def fit_edge_cases(draw):
    """A random-DAG subgraph, a ``(cores, batch)`` point and a memory
    whose activation capacity sits at one drawn tile's per-core share:
    exactly ``⌈act/C⌉`` or one byte below it. A shared buffer at the
    exact share leaves that tile no room for weights."""
    graph = draw(random_dags())
    if draw(st.booleans()):
        graph = _without_weights(graph)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    members = draw(st.sampled_from(random_partition(graph, rng).subgraph_sets))
    cores = draw(st.sampled_from((1, 2, 3, 4)))
    batch = draw(st.sampled_from((1, 2, 8)))
    profile = profile_subgraph_reference(graph, members)
    act = draw(st.sampled_from(profile.tile_options)).activation_bytes
    capacity = max(1, -(-act // cores) - draw(st.sampled_from((0, 1))))
    if draw(st.booleans()):
        memory = MemoryConfig.shared(capacity)
    else:
        weights = profile.weight_bytes
        weight_buffer = draw(st.sampled_from((1, -(-weights // cores), weights)))
        memory = MemoryConfig.separate(capacity, max(1, weight_buffer))
    return graph, members, cores, batch, memory


class TestProfileEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_dag_profiles_bit_identical(self, seed):
        graph = build_random_dag(seed, num_layers=12)
        rng = random.Random(seed)
        for members in random_partition(graph, rng).subgraph_sets:
            assert profile_subgraph(graph, members) == profile_subgraph_reference(
                graph, members
            )

    def test_min_activation_bytes_materialized(self):
        graph = get_model("googlenet")
        rng = random.Random(0)
        members = random_partition(graph, rng).subgraph_sets[0]
        profile = profile_subgraph(graph, members)
        assert profile.min_activation_bytes == min(
            o.activation_bytes for o in profile.tile_options
        )
        # The field is a plain attribute now, not a recomputing property.
        assert not isinstance(
            getattr(type(profile), "min_activation_bytes", None), property
        )


class TestPartitionCostEquivalence:
    @pytest.mark.parametrize("cores,batch", CORES_BATCH)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_partitions_bit_identical(self, seed, cores, batch):
        graph = build_random_dag(seed + 20, num_layers=14)
        accel = paper_accelerator(num_cores=cores)
        evaluator = Evaluator(graph, accel, batch=batch)
        rng = random.Random(seed)
        for _ in range(2):
            partition = random_partition(graph, rng)
            for memory in MEMORIES:
                fast = evaluator.evaluate(partition.subgraph_sets, memory)
                reference = evaluate_partition_reference(
                    graph, accel, partition.subgraph_sets, memory, batch=batch
                )
                assert fast == reference

    def test_zoo_model_bit_identical(self):
        graph = get_model("mobilenet_v2")
        accel = paper_accelerator()
        evaluator = Evaluator(graph, accel)
        partition = random_partition(graph, random.Random(1))
        for memory in MEMORIES:
            fast = evaluator.evaluate(partition.subgraph_sets, memory)
            reference = evaluate_partition_reference(
                graph, accel, partition.subgraph_sets, memory
            )
            assert fast == reference


class TestSummaryEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_summarize_matches_evaluate(self, seed):
        graph = build_random_dag(seed + 40, num_layers=12)
        evaluator = Evaluator(graph, paper_accelerator())
        rng = random.Random(seed)
        partition = random_partition(graph, rng)
        for memory in MEMORIES:
            summary = evaluator.summarize(partition.subgraph_sets, memory)
            full = evaluator.evaluate(partition.subgraph_sets, memory)
            assert isinstance(summary, PartitionSummary)
            assert summary.feasible == full.feasible
            assert summary.num_subgraphs == full.num_subgraphs
            assert summary.ema_bytes == full.ema_bytes
            assert summary.energy_pj == full.energy_pj
            assert summary.latency_cycles == full.latency_cycles

    def test_summarize_cold_equals_warm(self):
        """Incremental (cached) summaries equal a from-scratch evaluation."""
        graph = get_model("googlenet")
        warm = Evaluator(graph, paper_accelerator())
        partition = random_partition(graph, random.Random(5))
        memory = MEMORIES[0]
        first = warm.summarize(partition.subgraph_sets, memory)
        again = warm.summarize(partition.subgraph_sets, memory)
        # A copy of the graph: its store holds nothing warm derived.
        cold = Evaluator(fresh_copy(graph), paper_accelerator()).summarize(
            partition.subgraph_sets, memory
        )
        assert first == again == cold


class TestFeasibilityFastPath:
    @pytest.mark.parametrize("cores,batch", CORES_BATCH)
    @pytest.mark.parametrize("seed", range(5))
    def test_feasible_matches_priced_feasibility(self, seed, cores, batch):
        graph = build_random_dag(seed + 60, num_layers=12)
        evaluator = Evaluator(graph, paper_accelerator(num_cores=cores), batch=batch)
        rng = random.Random(seed)
        sets = random_partition(graph, rng).subgraph_sets
        # Every tier answers: a cold probe takes the direct solve's
        # footprint (or a profile), a repeat reads the footprint cache,
        # and a probe after pricing reads the profile.
        probes = [[evaluator.feasible(m, memory) for m in sets] for memory in MEMORIES]
        assert probes == [
            [evaluator.feasible(m, memory) for m in sets] for memory in MEMORIES
        ]
        for memory, probed in zip(MEMORIES, probes):
            for members, verdict in zip(sets, probed):
                priced = evaluator.subgraph_cost(members, memory).feasible
                assert verdict == priced
                assert evaluator.feasible(members, memory) == priced


class TestReferenceEvaluatorParity:
    def test_reference_evaluator_same_values(self):
        graph = get_model("googlenet")
        accel = paper_accelerator()
        fast, reference = Evaluator(graph, accel), ReferenceEvaluator(graph, accel)
        partition = random_partition(graph, random.Random(9))
        for memory in MEMORIES[:2]:
            assert fast.evaluate(partition.subgraph_sets, memory) == (
                reference.evaluate(partition.subgraph_sets, memory)
            )
            assert fast.summarize(partition.subgraph_sets, memory) == (
                reference.summarize(partition.subgraph_sets, memory)
            )


class TestKernelDifferential:
    """The fit rule and the pricing kernel against the oracle at the edges."""

    @settings(max_examples=300, deadline=None)
    @given(case=fit_edge_cases())
    def test_every_path_matches_the_reference(self, case):
        graph, members, cores, batch, memory = case
        accel = paper_accelerator(num_cores=cores)
        reference = evaluate_partition_reference(
            graph, accel, [members], memory, batch=batch
        )
        # A cold evaluator primes the key: its profile takes the closed
        # form when the shape class has one, in either buffer mode.
        batched = Evaluator(graph, accel, batch=batch)
        batched.prime_summaries([[members]], memory)
        assert batched.summarize([members], memory) == PartitionSummary(
            feasible=reference.feasible,
            num_subgraphs=1,
            ema_bytes=reference.ema_bytes,
            energy_pj=reference.energy_pj,
            latency_cycles=reference.latency_cycles,
        )
        assert batched.num_batch_priced == 1
        assert batched.feasible(members, memory) == reference.feasible
        # A copy of the graph, so the serial probe and pricing derive
        # their own structure and profile instead of reading batched's.
        serial = Evaluator(fresh_copy(graph), accel, batch=batch)
        assert serial.feasible(members, memory) == reference.feasible
        assert serial.subgraph_cost(members, memory) == reference.subgraphs[0]
        assert serial.feasible(members, memory) == reference.feasible
