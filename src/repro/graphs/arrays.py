"""Per-layer constant arrays for vectorized cost kernels.

The evaluation hot path repeatedly aggregates the same per-layer
constants — weight bytes, MAC counts, output-tensor bytes — over member
sets of subgraphs. :class:`GraphArrays` materializes those constants once
per graph (indexed by topological position) so the aggregations in
:mod:`repro.cost.ema` become array reductions instead of per-node
``graph.layer(...)`` attribute walks.

NumPy is used when available and silently skipped otherwise: the
pure-Python fallback keeps results bit-identical (all the aggregated
quantities are exact integers), only slower.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

try:  # gated dependency: the fallback below needs nothing beyond stdlib
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    _np = None

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
        if _np is not None:
            self.weight_bytes = _np.asarray(weight_bytes, dtype=_np.int64)
            self.macs = _np.asarray(macs, dtype=_np.int64)
            self.output_bytes = _np.asarray(output_bytes, dtype=_np.int64)
            self.heights = _np.asarray(heights, dtype=_np.int64)
            self.row_bytes = _np.asarray(row_bytes, dtype=_np.int64)
        else:
            self.weight_bytes = tuple(weight_bytes)
            self.macs = tuple(macs)
            self.output_bytes = tuple(output_bytes)
            self.heights = tuple(heights)
            self.row_bytes = tuple(row_bytes)

    # ------------------------------------------------------------------
    def indices(self, names: Iterable[str]) -> list[int]:
        """Topological positions of ``names`` (in iteration order)."""
        index = self.index
        return [index[n] for n in names]

    @staticmethod
    def total(array, indices: Sequence[int]) -> int:
        """Exact integer sum of ``array`` at ``indices``."""
        if _np is not None and isinstance(array, _np.ndarray):
            if not indices:
                return 0
            return int(array[indices].sum())
        return sum(array[i] for i in indices)
