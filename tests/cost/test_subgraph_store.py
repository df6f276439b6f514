"""The per-graph subgraph store: keying, sharing, bounds, oracle independence.

Every evaluator of one graph shares the graph's store of
memory-independent facts (structures, profiles, minimum footprints).
Profiles and footprints depend on the element width and the tile
candidates, so evaluators that differ in either must never read each
other's entries; the naive :class:`ReferenceEvaluator` must never read
the store at all, or the differential tests would compare the fast
path with itself.
"""

from __future__ import annotations

import random

import pytest

from repro.config import AcceleratorConfig, MemoryConfig
from repro.cost import store as store_module
from repro.cost.ema import DEFAULT_TILE_CANDIDATES
from repro.cost.evaluator import Evaluator
from repro.cost.reference import ReferenceEvaluator
from repro.experiments.common import paper_memory
from repro.graphs.ops import LayerSpec, OpKind
from repro.partition.random_init import random_partition
from repro.units import kb, mb

from ..conftest import build_chain, fresh_model

MEMORIES = (
    MemoryConfig.separate(mb(1), kb(1152)),
    MemoryConfig.separate(kb(64), kb(64)),
    MemoryConfig.shared(kb(512)),
    MemoryConfig.shared(kb(32)),
)

#: Two tile-candidate tuples of different lengths and stop points.
TILE_TUPLES = (DEFAULT_TILE_CANDIDATES, (1, 3, 12, 48))


def _subgraph_sets(graph, seed: int, count: int) -> list[frozenset[str]]:
    rng = random.Random(seed)
    sets: list[frozenset[str]] = []
    for _ in range(count):
        sets.extend(random_partition(graph, rng).subgraph_sets)
    return sets


class TestKeying:
    @pytest.mark.parametrize("name", ("googlenet", "unet"))
    def test_interleaved_widths_and_candidates_match_reference(self, name):
        """Evaluators at bytes per element 1 and 2 and two candidate
        tuples share one store; every answer matches the oracle's."""
        graph = fresh_model(name)
        configs = [
            (bpe, tiles) for bpe in (1, 2) for tiles in TILE_TUPLES
        ]
        pairs = []
        for bpe, tiles in configs:
            accel = AcceleratorConfig(memory=paper_memory(), bytes_per_element=bpe)
            pairs.append(
                (
                    Evaluator(graph, accel, tile_candidates=tiles),
                    ReferenceEvaluator(graph, accel, tile_candidates=tiles),
                )
            )
        sets = _subgraph_sets(graph, seed=5, count=3)
        for i, members in enumerate(sets):
            # Rotate which evaluator asks first and which question it
            # asks first, so each kind of entry is created under every key.
            turn = pairs[i % len(pairs):] + pairs[: i % len(pairs)]
            memory = MEMORIES[i % len(MEMORIES)]
            for fast, reference in turn:
                questions = (
                    lambda ev: ev.feasible(members, memory),
                    lambda ev: ev.min_footprint(members),
                    lambda ev: ev.profile(members),
                )
                for k in range(len(questions)):
                    ask = questions[(i + k) % len(questions)]
                    assert ask(fast) == ask(reference)


class TestSharing:
    def test_evaluators_of_one_graph_share_derivations(self):
        graph = fresh_model("resnet50")
        sets = _subgraph_sets(graph, seed=2, count=2)
        first = Evaluator(graph)
        for members in sets:
            first.profile(members)
        assert first.num_profile_calls == len(set(sets))
        second = Evaluator(graph, batch=4)
        for members in sets:
            assert second.profile(members) is first.profile(members)
        assert second.num_profile_calls == 0
        store = graph.subgraph_store()
        assert all(members in store.structures for members in sets)

    def test_add_layer_drops_the_store(self):
        graph = build_chain(depth=3)
        store = graph.subgraph_store()
        Evaluator(graph).profile({"conv1", "conv2"})
        assert store.structures
        shape = graph.layer("conv3").shape
        graph.add_layer(
            LayerSpec("conv4", OpKind.CONV, shape, kernel=1, stride=1), ["conv3"]
        )
        assert graph.subgraph_store() is not store
        assert not graph.subgraph_store().structures

    def test_store_maps_are_bounded(self, monkeypatch):
        monkeypatch.setattr(store_module, "STORE_SIZE", 3)
        graph = fresh_model("googlenet")
        evaluator = Evaluator(graph)
        sets = list(dict.fromkeys(_subgraph_sets(graph, seed=4, count=1)))
        assert len(sets) > 3
        facts = evaluator._facts
        for members in sets:
            # Footprint first: once a profile exists, it answers that too.
            evaluator.min_footprint(members)
            evaluator.feasible(members)
        assert len(facts.store.structures) == 3
        assert len(facts.profiles) == 3
        assert len(facts.min_footprints) == 3
        for members in sets:
            evaluator.profile(members)
        # Least recently used entries went first.
        assert list(facts.profiles) == sets[-3:]
        assert list(facts.store.structures) == sets[-3:]


class TestOracleIndependence:
    def test_reference_never_reads_the_store(self, monkeypatch):
        """After a fast evaluator primed the graph, the oracle still
        derives every profile through the naive profiler."""
        graph = fresh_model("googlenet")
        sets = _subgraph_sets(graph, seed=8, count=3)
        fast = Evaluator(graph)
        fast.prime_summaries([sets], MEMORIES[0])
        fast.summarize(sets, MEMORIES[0])
        for members in sets:
            fast.profile(members)
            fast.feasible(members)

        import repro.cost.reference as reference_module

        derived: list[frozenset[str]] = []
        naive = reference_module.profile_subgraph_reference

        def counting(graph, members, **kwargs):
            derived.append(frozenset(members))
            return naive(graph, members, **kwargs)

        monkeypatch.setattr(reference_module, "profile_subgraph_reference", counting)
        oracle = ReferenceEvaluator(graph)
        for members in sets:
            assert oracle.profile(members) == fast.profile(members)
            assert oracle.feasible(members) == fast.feasible(members)
            assert oracle.min_footprint(members) == fast.min_footprint(members)
        distinct = set(sets)
        assert sorted(map(sorted, derived)) == sorted(map(sorted, distinct))
        assert oracle.num_profile_calls == len(distinct)
