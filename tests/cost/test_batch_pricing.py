"""Priming a genome batch: bit-identity, cache semantics, stats.

``prime_summaries`` followed by ``summarize`` must be invisible except
for when keys are priced: identical summaries to serial ``summarize``
(and the naive reference) on any core count and batch, identical error
behaviour, and summary/warm-state caches in the same logical state
afterwards. Every key takes the one pricing path, whose profiles take a
shape class's closed-form option table in either buffer mode. The LRU
regression test pins that summary-cache hits refresh recency, so hot
entries are not the first evicted.
"""

from __future__ import annotations

import random

import pytest

from repro.config import MemoryConfig
from repro.cost import evaluator as evaluator_module
from repro.cost.ema import DEFAULT_TILE_CANDIDATES
from repro.cost.evaluator import Evaluator
from repro.cost.reference import ReferenceEvaluator
from repro.errors import TilingError
from repro.execution.tiling import TilingStructure
from repro.execution.tiling_batch import linear_model
from repro.experiments.common import paper_accelerator
from repro.graphs.zoo import get_model
from repro.partition.random_init import random_partition
from repro.units import kb, mb

from ..conftest import build_chain, build_random_dag, fresh_copy, fresh_model

MEMORIES = (
    MemoryConfig.separate(mb(1), kb(1152)),
    MemoryConfig.separate(kb(64), kb(64)),
    MemoryConfig.shared(kb(512)),
    MemoryConfig.shared(kb(32)),
)

#: Per buffer mode, a roomy buffer and one too small for one core to
#: hold the larger zoo subgraphs (their per-core shares on 2 or 4 cores
#: fit).
MODE_MEMORIES = {"separate": MEMORIES[:2], "shared": MEMORIES[2:]}

#: ``(num_cores, batch)`` points every pricing path must agree on.
CORES_BATCH = ((1, 1), (2, 2), (4, 8))


def _population(graph, seed: int, count: int = 8, memories=MEMORIES):
    rng = random.Random(seed)
    pops = [random_partition(graph, rng).subgraph_sets for _ in range(count)]
    mems = [memories[i % len(memories)] for i in range(count)]
    return pops, mems


def _primed(evaluator, pops, mems=None):
    """Prime the whole batch, then summarize each partition."""
    evaluator.prime_summaries(pops, mems)
    if mems is None:
        return [evaluator.summarize(p) for p in pops]
    return [evaluator.summarize(p, m) for p, m in zip(pops, mems)]


class TestPopulationIdentity:
    @pytest.mark.parametrize("name", ("resnet50", "googlenet", "transformer"))
    def test_zoo_population_matches_serial(self, name):
        graph = get_model(name)
        accel = paper_accelerator()
        pops, mems = _population(graph, seed=13)
        # Each evaluator on a graph of its own: evaluators of one graph
        # share its store, so the primed one derives its own profiles.
        serial = Evaluator(fresh_model(name), accel)
        expected = [serial.summarize(p, m) for p, m in zip(pops, mems)]
        batch = Evaluator(fresh_model(name), accel)
        assert _primed(batch, pops, mems) == expected
        assert batch.num_batch_priced > 0
        assert batch.num_direct_profiles > 0  # the closed form actually fires

    @pytest.mark.parametrize("cores,batch", CORES_BATCH)
    @pytest.mark.parametrize("name", ("resnet50", "googlenet"))
    @pytest.mark.parametrize("mode", tuple(MODE_MEMORIES))
    def test_cores_and_batch_match_reference(self, mode, name, cores, batch):
        """Primed, serial and naive pricing agree on every core count.

        Closed-form option tables feed the pricing in both buffer modes.
        """
        graph = get_model(name)
        accel = paper_accelerator(num_cores=cores)
        pops, mems = _population(
            graph, seed=7, count=6, memories=MODE_MEMORIES[mode]
        )
        reference = ReferenceEvaluator(graph, accel, batch=batch)
        expected = [reference.summarize(p, m) for p, m in zip(pops, mems)]
        serial = Evaluator(fresh_model(name), accel, batch=batch)
        assert [serial.summarize(p, m) for p, m in zip(pops, mems)] == expected
        batched = Evaluator(fresh_model(name), accel, batch=batch)
        assert _primed(batched, pops, mems) == expected
        assert batched.num_batch_priced > 0
        assert batched.num_direct_profiles > 0

    def test_zoo_population_matches_reference(self):
        graph = get_model("mobilenet_v2")
        accel = paper_accelerator()
        pops, mems = _population(graph, seed=3, count=5)
        reference = ReferenceEvaluator(graph, accel)
        expected = [reference.summarize(p, m) for p, m in zip(pops, mems)]
        assert _primed(Evaluator(graph, accel), pops, mems) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_random_dag_population_matches_serial(self, seed):
        graph = build_random_dag(seed + 80, num_layers=14)
        accel = paper_accelerator()
        pops, mems = _population(graph, seed=seed)
        serial = Evaluator(graph, accel)
        expected = [serial.summarize(p, m) for p, m in zip(pops, mems)]
        batch = Evaluator(fresh_copy(graph), accel)
        assert _primed(batch, pops, mems) == expected
        assert batch.num_batch_priced > 0

    def test_default_memory_broadcast(self):
        graph = fresh_model("googlenet")
        accel = paper_accelerator()
        pops, _ = _population(graph, seed=9, count=4)
        serial = Evaluator(graph, accel)
        expected = [serial.summarize(p) for p in pops]
        batch = Evaluator(fresh_copy(graph), accel)
        assert _primed(batch, pops) == expected
        assert batch.num_batch_priced > 0

    def test_warm_population_is_pure_cache_read(self):
        graph = get_model("resnet50")
        evaluator = Evaluator(graph, paper_accelerator())
        pops, mems = _population(graph, seed=1, count=4)
        first = _primed(evaluator, pops, mems)
        priced = evaluator.num_batch_priced
        again = _primed(evaluator, pops, mems)
        assert again == first
        assert evaluator.num_batch_priced == priced  # nothing re-priced
        assert evaluator.num_batch_hits > 0

    def test_prime_then_summarize_matches_cold_serial(self):
        graph = fresh_model("unet")
        accel = paper_accelerator()
        pops, mems = _population(graph, seed=4, count=4)
        primed = Evaluator(graph, accel)
        primed.prime_summaries(pops, mems)
        assert primed.num_batch_priced > 0
        cold = Evaluator(fresh_copy(graph), accel)
        for p, m in zip(pops, mems):
            assert primed.summarize(p, m) == cold.summarize(p, m)


class TestErrorFallback:
    def test_infeasible_structures_raise_like_serial(self):
        """A key priming cannot profile raises as summarize does."""
        graph = build_chain(depth=4)
        evaluator = Evaluator(graph, paper_accelerator(), tile_candidates=())
        members = frozenset(graph.compute_names)
        with pytest.raises(TilingError) as serial_err:
            Evaluator(
                fresh_copy(graph), paper_accelerator(), tile_candidates=()
            ).summarize([members])
        with pytest.raises(TilingError) as batch_err:
            _primed(evaluator, [[members]])
        assert str(batch_err.value) == str(serial_err.value)


class TestSummaryCacheLRU:
    def test_hot_entries_survive_eviction(self, monkeypatch):
        """Regression: a summary-cache hit must refresh recency."""
        monkeypatch.setattr(evaluator_module, "COST_CACHE_SIZE", 2)
        graph = build_chain(depth=6)
        names = sorted(graph.compute_names)
        evaluator = Evaluator(graph, paper_accelerator())
        memory = MEMORIES[0]
        hot = [frozenset([names[0]])]
        cold = [frozenset([names[1]])]
        third = [frozenset([names[2]])]
        def keys():
            return {members for (members, _), _ in evaluator._summaries.items()}

        evaluator.summarize(hot, memory)
        evaluator.summarize(cold, memory)
        evaluator.summarize(hot, memory)  # hit: must move to MRU
        evaluator.summarize(third, memory)  # evicts cold, not hot
        assert keys() == {hot[0], third[0]}
        # Pre-fix behaviour evicted by insertion order — the hit did not
        # refresh recency, so the hot entry went first.
        evaluator.summarize(cold, memory)
        assert hot[0] not in keys()  # hot is now genuinely the LRU victim

    def test_absorb_respects_capacity(self, monkeypatch):
        monkeypatch.setattr(evaluator_module, "COST_CACHE_SIZE", 2)
        graph = build_chain(depth=6)
        evaluator = Evaluator(graph, paper_accelerator())
        entries = [
            ((frozenset([f"s{i}"]), ("separate", 1, 1)), (True, i, 1.0, 1.0))
            for i in range(5)
        ]
        evaluator.absorb_summaries(entries)
        assert len(evaluator._summaries) == 2
        # Newest absorbed entries survive.
        assert (frozenset(["s4"]), ("separate", 1, 1)) in evaluator._summaries


class TestStatsPlumbing:
    @pytest.mark.parametrize("timed", [False, True])
    def test_batch_counters_reported(self, timed):
        graph = fresh_model("googlenet")
        evaluator = Evaluator(graph, paper_accelerator(), collect_timings=timed)
        pops, mems = _population(graph, seed=2, count=3)
        _primed(evaluator, pops, mems)
        stats = evaluator.stats()
        counters = {key for key in stats if not key.endswith("_s")}
        assert counters == {
            "profile_calls",
            "direct_profiles",
            "cost_calls",
            "batch_calls",
            "batch_priced",
            "batch_hits",
        }
        # Stage timings are reported only when collected.
        timings = {key for key in stats if key.endswith("_s")}
        assert timings == (set(evaluator.timings) if timed else set())
        assert stats["batch_priced"] == evaluator.num_batch_priced > 0
        assert stats["direct_profiles"] == evaluator.num_direct_profiles > 0

    def test_linear_class_probe_solves_no_candidate(self, monkeypatch):
        """A repair probe of a set whose shape class has a closed form
        never solves a tile candidate; a class without one scans."""
        solved: list[frozenset[str]] = []
        option = TilingStructure.option

        def counting(structure, output_tile_rows, row_bytes):
            solved.append(structure.members)
            return option(structure, output_tile_rows, row_bytes)

        monkeypatch.setattr(TilingStructure, "option", counting)
        graph = fresh_model("resnet50")
        evaluator = Evaluator(graph, paper_accelerator())
        reference = ReferenceEvaluator(graph, paper_accelerator())
        store = graph.subgraph_store()
        partition = random_partition(graph, random.Random(0))
        linear = 0
        for memory in MEMORIES:
            for members in partition.subgraph_sets:
                assert evaluator.feasible(members, memory) == reference.feasible(
                    members, memory
                )
                model = linear_model(store.structure(members), DEFAULT_TILE_CANDIDATES)
                if model is not None:
                    linear += 1
                    assert members not in solved
        assert linear > 0
        assert evaluator.num_direct_profiles > 0
        # Candidates that do not ascend build no model: the probe scans.
        descending = Evaluator(graph, paper_accelerator(), tile_candidates=(8, 4, 2, 1))
        members = partition.subgraph_sets[0]
        descending.feasible(members)
        assert members in solved
        assert descending.num_direct_profiles == 0


class TestWarmStateInterop:
    def test_batch_priced_summaries_ship_like_serial(self):
        """Exported warm entries from a primed run absorb bit-identically."""
        graph = fresh_model("googlenet")
        accel = paper_accelerator()
        producer = Evaluator(graph, accel)
        pops, mems = _population(graph, seed=6, count=4)
        expected = _primed(producer, pops, mems)
        assert producer.num_batch_priced > 0
        entries = producer.export_summaries()
        assert entries
        consumer = Evaluator(graph, accel)
        consumer.absorb_summaries(entries)
        priced_before = consumer.num_cost_calls
        assert [
            consumer.summarize(p, m) for p, m in zip(pops, mems)
        ] == expected
        assert consumer.num_cost_calls == priced_before  # fully warm
