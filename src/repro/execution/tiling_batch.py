"""Closed-form option tables for tiling shape classes.

Every input of the stage 1-3 solves lives in a structure's
:attr:`~repro.execution.tiling.TilingStructure.signature`, so subgraphs
that share it (a *shape class*, differing only in node names and per-row
byte widths) share one option scan up to the final footprint dot
product.

:class:`LinearTileModel` goes one step further, in the spirit of GOMA's
analytical mapping (PAPERS.md): when the cost-vs-``output_tile_rows``
surface is provably linear over the scanned candidate range (integer
base solution, no ``full_input`` requirement, no output-height cap
binding), the activation footprint of candidate ``c`` is exactly
``A*c + B`` with per-subgraph constants, strictly increasing in ``c``,
while the elementary-operation count is non-increasing. A subgraph's
option table is then the class's kept candidates and operation counts
plus two dot products (:func:`repro.cost.ema.profile_subgraph` builds it
so, in either buffer mode). The preconditions are checked exactly; any
class failing them keeps the ordinary scan, so results stay
bit-identical to :mod:`repro.cost.reference` either way (locked by
``tests/execution/test_tiling_batch.py`` and
``tests/cost/test_closed_form_profiles.py`` over the whole model zoo).
"""

from __future__ import annotations

import math
from collections import OrderedDict

from .tiling import TilingStructure

#: Process-wide models keyed by (shape signature, tile candidates). The
#: signature fully determines the model, so every structure of a class,
#: in any graph, shares one build; entries are 1-tuples so a ``None``
#: model (failed preconditions) is distinguishable from a miss. A few
#: thousand shape classes cover even the deepest zoo nets.
_MODELS: OrderedDict[tuple, tuple] = OrderedDict()
_MODELS_SIZE = 8192


def member_max_height(structure: TilingStructure) -> int:
    """Largest member output height — the profiling candidate cutoff."""
    return max(
        height
        for height, is_member in zip(structure.heights, structure.is_member)
        if is_member
    )


def linear_model(
    structure: TilingStructure, tile_candidates: tuple[int, ...]
) -> "LinearTileModel | None":
    """The cached model of ``structure``'s shape class, or ``None`` when
    the class fails the :class:`LinearTileModel` preconditions."""
    key = (structure.signature, tuple(tile_candidates))
    hit = _MODELS.get(key)
    if hit is not None:
        _MODELS.move_to_end(key)
        return hit[0]
    model = LinearTileModel.build(structure, tile_candidates)
    _MODELS[key] = (model,)
    if len(_MODELS) > _MODELS_SIZE:
        _MODELS.popitem(last=False)
    return model


class LinearTileModel:
    """Closed-form option table of one provably-linear shape class.

    Valid when (checked exactly by :meth:`build`):

    * the tile candidates are strictly ascending,
    * the base (tile-size-1) solution is all-integer and no
      ``full_input`` requirement participates,
    * every candidate the scan keeps lies at or below the first
      output-height cap (``limit``), so the stage-2 scale fast path is
      exact for all of them.

    Inside that range node ``i``'s resident rows are exactly
    ``slope[i] * c + intercept[i]`` (``slope`` = base delta,
    ``intercept`` = the non-negative window overlap), hence a subgraph's
    activation footprint is ``A*c + B`` with ``A = rows . slope >= 1``
    and ``B = rows . intercept`` — strictly increasing in ``c``, so no
    two kept candidates collapse into one option — while the
    elementary-operation count ``ceil(h / (upd * slope * c))`` never
    increases. ``kept`` and ``kept_ops`` are exactly the tile sizes and
    operation counts of the options the candidate scan keeps.
    """

    __slots__ = ("kept", "kept_ops", "slope", "intercept")

    def __init__(
        self,
        kept: tuple[int, ...],
        kept_ops: tuple[int, ...],
        slope: tuple[int, ...],
        intercept: tuple[int, ...],
    ) -> None:
        self.kept = kept
        self.kept_ops = kept_ops
        self.slope = slope
        self.intercept = intercept

    @classmethod
    def build(
        cls, structure: TilingStructure, tile_candidates: tuple[int, ...]
    ) -> "LinearTileModel | None":
        """The model for one shape class, or ``None`` on any failed check."""
        if not tile_candidates or tile_candidates[0] < 1:
            return None  # the scan raises what it raises for these
        if any(b <= a for a, b in zip(tile_candidates, tile_candidates[1:])):
            return None  # the monotonicity argument needs ascending candidates
        if any(full is not None for full in structure.full_req):
            return None
        base_delta, _, base_upd = structure.base
        if any(type(d) is not int for d in base_delta):
            return None
        heights = structure.heights
        slope = tuple(base_delta)
        intercept: list[int] = []
        limit: int | None = None  # largest c with no height cap binding
        for i, info in enumerate(structure.kids_info):
            height = heights[i]
            if not info:
                offset = 0
                cap = height
            else:
                affine = structure.aff_max[i]
                if affine is None:  # defensive: full-only nodes were rejected
                    return None
                offset = affine if affine > 0 else 0
                cap = (height - offset) // slope[i]
            intercept.append(offset)
            if limit is None or cap < limit:
                limit = cap
        if limit is None or limit < tile_candidates[0]:
            return None
        max_height = member_max_height(structure)
        stable_after = structure.saturation
        leaves = structure.leaves
        kept: list[int] = []
        kept_ops: list[int] = []
        for c in tile_candidates:
            if kept and c > max_height:
                break
            if c > limit:
                return None  # a cap binds inside the scanned range
            num_ops = 1
            for i in leaves:
                ops = math.ceil(heights[i] / (base_upd[i] * slope[i] * c))
                if ops > num_ops:
                    num_ops = ops
            kept.append(c)
            kept_ops.append(num_ops)
            if num_ops == 1:
                break
            if c >= stable_after:
                break
        return cls(tuple(kept), tuple(kept_ops), slope, tuple(intercept))
