"""Shape classes and their closed-form option tables vs the real scan.

The GOMA-style :class:`~repro.execution.tiling_batch.LinearTileModel`
replaces the per-candidate scan with a closed form whenever its
linearity preconditions hold. These tests pin the claim that matters:
on every zoo network, at both element widths, the closed form and the
scan agree *exactly* — on the kept candidate list, the operation
counts, and every option's activation footprint.
"""

from __future__ import annotations

import random

import pytest

from repro.cost.ema import DEFAULT_TILE_CANDIDATES, _select_options
from repro.execution.tiling import TilingStructure
from repro.execution.tiling_batch import LinearTileModel, member_max_height
from repro.graphs.zoo import available_models, get_model
from repro.partition.random_init import random_partition


def _structures(graph, seed: int, count: int = 2):
    rng = random.Random(seed)
    seen: set[frozenset[str]] = set()
    for _ in range(count):
        for members in random_partition(graph, rng).subgraph_sets:
            if members not in seen:
                seen.add(members)
                yield members, TilingStructure(graph, members)


@pytest.mark.parametrize("name", available_models())
@pytest.mark.parametrize("bpe", (1, 2))
def test_direct_solve_matches_scan(name, bpe):
    """Closed-form table == scanned table on every zoo network, both widths."""
    graph = get_model(name)
    arrays = graph.arrays(bpe)
    models_built = 0
    for members, structure in _structures(graph, seed=17):
        model = LinearTileModel.build(structure, DEFAULT_TILE_CANDIDATES)
        if model is None:
            continue
        models_built += 1
        rows = [arrays.row_bytes[arrays.index[n]] for n in structure.names]
        scanned = _select_options(
            lambda tile_rows: structure.option(tile_rows, rows),
            DEFAULT_TILE_CANDIDATES,
            member_max_height(structure),
            stable_after=structure.saturation,
        )
        # The kept candidate list is exactly the scanned option list.
        assert model.kept == tuple(o.tile_rows for o in scanned)
        assert model.kept_ops == tuple(o.num_elementary_ops for o in scanned)
        # The closed-form footprint A*c + B equals each option's footprint.
        slope = sum(r * s for r, s in zip(rows, model.slope))
        icept = sum(r * o for r, o in zip(rows, model.intercept))
        for option in scanned:
            assert slope * option.tile_rows + icept == option.activation_bytes
    # The model zoo is conv/MLP-dominated: the linear preconditions must
    # actually fire, otherwise the fast path is dead code.
    assert models_built > 0


def test_member_max_height_matches_members():
    graph = get_model("googlenet")
    for members, structure in _structures(graph, seed=1, count=1):
        expected = max(graph.layer(n).shape.height for n in members)
        assert member_max_height(structure) == expected


def test_model_rejects_unordered_candidates():
    graph = get_model("resnet50")
    members, structure = next(iter(_structures(graph, seed=2, count=1)))
    assert LinearTileModel.build(structure, (8, 4, 2)) is None
    assert LinearTileModel.build(structure, ()) is None
    # The scan raises for a non-positive tile size; so must the profile.
    assert LinearTileModel.build(structure, (0, 4)) is None


def test_shape_signature_groups_solve_identically():
    """Structures sharing a signature share base solves verbatim."""
    graph = get_model("resnet152")
    groups: dict[tuple, list[TilingStructure]] = {}
    for _, structure in _structures(graph, seed=3):
        groups.setdefault(structure.signature, []).append(structure)
    shared = [g for g in groups.values() if len(g) > 1]
    assert shared  # deep residual nets repeat shapes heavily
    for group in shared:
        rep = group[0]
        for other in group[1:]:
            assert other.base == rep.base
