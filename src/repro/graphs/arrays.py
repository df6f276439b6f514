"""Per-layer constant arrays for vectorized cost kernels.

The evaluation hot path repeatedly aggregates the same per-layer
constants — weight bytes, MAC counts, output-tensor bytes — over member
sets of subgraphs. :class:`GraphArrays` materializes those constants once
per graph (indexed by topological position) so the aggregations in
:mod:`repro.cost.ema` become array reductions instead of per-node
``graph.layer(...)`` attribute walks.

The arrays are NumPy ``int64`` vectors, so every aggregated quantity
stays an exact integer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover
    from .graph import ComputationGraph


class GraphArrays:
    """Immutable per-layer constant arrays for one graph.

    All arrays are indexed by topological position (``index[name]``).
    Integer dtypes are 64-bit, which is exact for every quantity in the
    model zoo (the largest, total GPT weight bytes, is far below 2**63).
    """

    __slots__ = (
        "index",
        "names",
        "weight_bytes",
        "macs",
        "output_bytes",
        "heights",
        "row_bytes",
        "bytes_per_element",
    )

    def __init__(self, graph: "ComputationGraph", bytes_per_element: int = 1):
        order = graph.topological_order()
        self.names: tuple[str, ...] = order
        self.index: dict[str, int] = graph.topo_index()
        self.bytes_per_element = bytes_per_element
        weight_bytes = []
        macs = []
        output_bytes = []
        heights = []
        row_bytes = []
        for name in order:
            spec = graph.layer(name)
            weight_bytes.append(spec.weight_bytes)
            macs.append(spec.macs)
            output_bytes.append(spec.output_bytes(bytes_per_element))
            heights.append(spec.shape.height)
            row_bytes.append(
                spec.shape.width * spec.shape.channels * bytes_per_element
            )
        self.weight_bytes = _np.asarray(weight_bytes, dtype=_np.int64)
        self.macs = _np.asarray(macs, dtype=_np.int64)
        self.output_bytes = _np.asarray(output_bytes, dtype=_np.int64)
        self.heights = _np.asarray(heights, dtype=_np.int64)
        self.row_bytes = _np.asarray(row_bytes, dtype=_np.int64)

    # ------------------------------------------------------------------
    def indices(self, names: Iterable[str]) -> list[int]:
        """Topological positions of ``names`` (in iteration order)."""
        index = self.index
        return [index[n] for n in names]

    @staticmethod
    def total(array, indices: Sequence[int]) -> int:
        """Exact integer sum of ``array`` at ``indices``."""
        if not indices:
            return 0
        return int(array[indices].sum())
