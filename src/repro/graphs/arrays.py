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

from typing import TYPE_CHECKING, Sequence

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
        "_row_bytes_list",
        "_layer_weights",
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
        self._row_bytes_list: list[int] | None = None
        self._layer_weights: tuple[tuple[str, int], ...] | None = None

    # ------------------------------------------------------------------
    def local_row_bytes(self, ids: Sequence[int]) -> list[int]:
        """Bytes per output row at each of ``ids``, as Python ints."""
        row_bytes = self._row_bytes_list
        if row_bytes is None:
            row_bytes = self._row_bytes_list = self.row_bytes.tolist()
        return [row_bytes[i] for i in ids]

    @property
    def layer_weights(self) -> tuple[tuple[str, int], ...]:
        """``(name, weight_bytes)`` per position: the pairs a profile's
        ``layer_weights`` lists, shared rather than rebuilt per profile."""
        pairs = self._layer_weights
        if pairs is None:
            pairs = self._layer_weights = tuple(
                zip(self.names, self.weight_bytes.tolist())
            )
        return pairs

    @staticmethod
    def total(array, indices: Sequence[int]) -> int:
        """Exact integer sum of ``array`` at ``indices``."""
        if not indices:
            return 0
        return int(array[indices].sum())
