"""Differential test: closed-form option tables vs the naive profiler.

:func:`~repro.cost.ema.profile_subgraph` takes a shape class's option
table from its :class:`~repro.execution.tiling_batch.LinearTileModel`
when one exists (option ``c`` costs ``A*c + B`` bytes) and scans the
tile candidates otherwise. On random connected member sets of every zoo
network, at both element widths, with the default candidates and one
other ascending tuple, the profile must equal
:func:`~repro.cost.ema.profile_subgraph_reference` exactly, and a class
with a model must solve no candidate; a descending tuple builds no
model, so it must take the scan. Over those profiles the
:class:`Evaluator` must agree with the naive :class:`ReferenceEvaluator`
on ``summarize`` and ``feasible`` under separate and shared memories, at
every ``(cores, batch)`` point the pricing tests use.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryConfig
from repro.cost.ema import (
    DEFAULT_TILE_CANDIDATES,
    profile_subgraph,
    profile_subgraph_reference,
)
from repro.cost.evaluator import Evaluator
from repro.cost.reference import ReferenceEvaluator
from repro.errors import TilingError
from repro.execution.tiling import TilingStructure
from repro.execution.tiling_batch import linear_model
from repro.experiments.common import paper_accelerator
from repro.graphs.zoo import available_models, get_model
from repro.partition.random_init import random_partition
from repro.units import kb, mb

from ..conftest import connected_members

#: The default candidates and one ascending tuple of other stop points.
ASCENDING = (DEFAULT_TILE_CANDIDATES, (1, 3, 12, 48))

#: No model is built for candidates that do not ascend.
DESCENDING = (8, 4, 2, 1)

MEMORIES = (
    MemoryConfig.separate(mb(1), kb(1152)),
    MemoryConfig.separate(kb(64), kb(64)),
    MemoryConfig.shared(kb(512)),
    MemoryConfig.shared(kb(32)),
)

#: ``(num_cores, batch)`` points every pricing path must agree on.
CORES_BATCH = ((1, 1), (2, 2), (4, 8))


class CountingStructure(TilingStructure):
    """A structure that counts the tile candidates it solves."""

    __slots__ = ("solved",)

    def __init__(self, graph, members) -> None:
        super().__init__(graph, members)
        self.solved = 0

    def option(self, output_tile_rows, row_bytes):
        self.solved += 1
        return super().option(output_tile_rows, row_bytes)


@pytest.mark.parametrize("name", available_models())
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 14),
    bpe=st.sampled_from((1, 2)),
    tiles=st.sampled_from(ASCENDING),
)
def test_profile_matches_reference(name, seed, size, bpe, tiles):
    graph = get_model(name)
    members = connected_members(graph, random.Random(seed), size)
    structure = CountingStructure(graph, members)
    profile = profile_subgraph(graph, members, bpe, tiles, structure=structure)
    assert profile == profile_subgraph_reference(graph, members, bpe, tiles)
    if linear_model(structure, tiles) is None:
        assert structure.solved > 0
    else:
        assert structure.solved == 0


@pytest.mark.parametrize("name", available_models())
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 14))
def test_descending_candidates_take_the_scan(name, seed, size):
    graph = get_model(name)
    members = connected_members(graph, random.Random(seed), size)
    structure = CountingStructure(graph, members)
    assert linear_model(structure, DESCENDING) is None
    profile = profile_subgraph(graph, members, 1, DESCENDING, structure=structure)
    assert structure.solved > 0
    assert profile == profile_subgraph_reference(graph, members, 1, DESCENDING)


def test_non_positive_candidates_raise_like_the_reference():
    """A tile size below 1 builds no model, so a probe of a linear class
    scans and raises the reference's error."""
    graph = get_model("resnet50")
    members = next(
        m
        for m in random_partition(graph, random.Random(0)).subgraph_sets
        if linear_model(TilingStructure(graph, m), DEFAULT_TILE_CANDIDATES) is not None
    )
    with pytest.raises(TilingError) as fast:
        Evaluator(graph, tile_candidates=(0, 4)).feasible(members)
    with pytest.raises(TilingError) as naive:
        ReferenceEvaluator(graph, tile_candidates=(0, 4)).feasible(members)
    assert str(fast.value) == str(naive.value)


@pytest.mark.parametrize("tiles", ASCENDING)
def test_closed_form_fires_on_the_zoo(tiles):
    """Some zoo sets have a model for each ascending tuple, so the
    differential test above exercises the closed form, not only the scan."""
    rng = random.Random(0)
    linear = 0
    for name in available_models():
        graph = get_model(name)
        for size in (1, 3, 6):
            structure = TilingStructure(graph, connected_members(graph, rng, size))
            linear += linear_model(structure, tiles) is not None
    assert linear > 0


@pytest.mark.parametrize("name", available_models())
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    point=st.sampled_from(CORES_BATCH),
    bpe=st.sampled_from((1, 2)),
)
def test_evaluator_matches_reference(name, seed, point, bpe):
    graph = get_model(name)
    rng = random.Random(seed)
    sets = [connected_members(graph, rng, rng.randint(1, 10)) for _ in range(3)]
    cores, batch = point
    accel = replace(paper_accelerator(num_cores=cores), bytes_per_element=bpe)
    fast = Evaluator(graph, accel, batch=batch)
    reference = ReferenceEvaluator(graph, accel, batch=batch)
    for memory in MEMORIES:
        for members in sets:
            assert fast.feasible(members, memory) == reference.feasible(
                members, memory
            )
        assert fast.summarize(sets, memory) == reference.summarize(sets, memory)
