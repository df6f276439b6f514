"""Differential test: the id-built TilingStructure vs derive_tiling.

:class:`~repro.execution.tiling.TilingStructure` lists a subgraph's
local nodes as sorted graph ids and reads heights, consumer kinds,
window offsets and consumption ratios from the graph's
:class:`~repro.execution.tiling.TilingTable`; :func:`derive_tiling`
walks the graph by layer name. On random connected member sets of every
zoo network both must derive the same scheme at every default tile
candidate — same nodes in the same (topological) order, same
elementary-operation count — and must reject invalid member sets with
the same exception type and message.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.ema import DEFAULT_TILE_CANDIDATES
from repro.errors import ReproError
from repro.execution import tiling
from repro.execution.tiling import TilingStructure, derive_tiling
from repro.graphs.zoo import available_models, get_model

from ..conftest import connected_members, fresh_model


def _outcome(build):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", build())
    except ReproError as exc:
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("name", available_models())
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 14))
def test_id_build_matches_derive_tiling(name, seed, size):
    graph = get_model(name)
    members = connected_members(graph, random.Random(seed), size)
    structure = TilingStructure(graph, members)
    for t in DEFAULT_TILE_CANDIDATES:
        reference = derive_tiling(graph, members, output_tile_rows=t)
        fast = structure.tiling(t)
        assert list(fast.nodes.items()) == list(reference.nodes.items())
        assert fast.num_elementary_ops == reference.num_elementary_ops
        assert fast.output_tile_rows == reference.output_tile_rows


@pytest.mark.parametrize("name", available_models())
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6))
def test_invalid_members_raise_like_derive_tiling(name, seed, size):
    graph = get_model(name)
    members = connected_members(graph, random.Random(seed), size)
    invalid = (
        frozenset(),
        members | {"no_such_layer"},
        members | {graph.input_names[0]},
        frozenset({graph.input_names[0]}),
    )
    for candidate in invalid:
        expected = _outcome(lambda: derive_tiling(graph, candidate))
        assert expected[0] == "raised"
        assert _outcome(lambda: TilingStructure(graph, candidate)) == expected


def test_interned_tuples_stay_bounded(monkeypatch):
    """The table starts its interned set over at the bound; structures
    built across a reset still derive what derive_tiling derives."""
    monkeypatch.setattr(tiling, "_SHARED_SIZE", 8)
    graph = fresh_model("randwire_a")
    rng = random.Random(3)
    sizes = []
    for _ in range(40):
        members = connected_members(graph, rng, rng.randint(1, 10))
        structure = TilingStructure(graph, members)
        sizes.append(len(graph.tiling_table()._shared))
        reference = derive_tiling(graph, members, output_tile_rows=4)
        assert list(structure.tiling(4).nodes.items()) == list(
            reference.nodes.items()
        )
    assert max(sizes) <= 8
    assert min(sizes[10:]) < max(sizes)  # it did start over
