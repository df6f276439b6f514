"""Per-layer constant columns for the cost kernels.

The evaluation hot path repeatedly aggregates the same per-layer
constants — weight bytes, MAC counts, output-tensor bytes — over member
sets of subgraphs. :class:`GraphArrays` materializes those constants once
per graph (indexed by topological position) so the aggregations in
:mod:`repro.cost.ema` become sums over a few ids instead of per-node
``graph.layer(...)`` attribute walks.

The columns are tuples of Python ints, so every aggregated quantity is
an exact integer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .graph import ComputationGraph


class GraphArrays:
    """Immutable per-layer constant columns for one graph.

    All columns are indexed by topological position (``index[name]``).
    """

    __slots__ = (
        "index",
        "names",
        "weight_bytes",
        "macs",
        "output_bytes",
        "row_bytes",
        "bytes_per_element",
        "_layer_weights",
    )

    def __init__(self, graph: "ComputationGraph", bytes_per_element: int = 1):
        order = graph.topological_order()
        self.names: tuple[str, ...] = order
        self.index: dict[str, int] = graph.topo_index()
        self.bytes_per_element = bytes_per_element
        specs = [graph.layer(name) for name in order]
        self.weight_bytes: tuple[int, ...] = tuple(s.weight_bytes for s in specs)
        self.macs: tuple[int, ...] = tuple(s.macs for s in specs)
        self.output_bytes: tuple[int, ...] = tuple(
            s.output_bytes(bytes_per_element) for s in specs
        )
        self.row_bytes: tuple[int, ...] = tuple(
            s.shape.width * s.shape.channels * bytes_per_element for s in specs
        )
        self._layer_weights: tuple[tuple[str, int], ...] | None = None

    # ------------------------------------------------------------------
    def local_row_bytes(self, ids: Sequence[int]) -> list[int]:
        """Bytes per output row at each of ``ids``."""
        row_bytes = self.row_bytes
        return [row_bytes[i] for i in ids]

    @property
    def layer_weights(self) -> tuple[tuple[str, int], ...]:
        """``(name, weight_bytes)`` per position: the pairs a profile's
        ``layer_weights`` lists, shared rather than rebuilt per profile."""
        pairs = self._layer_weights
        if pairs is None:
            pairs = self._layer_weights = tuple(zip(self.names, self.weight_bytes))
        return pairs

    @staticmethod
    def total(column: Sequence[int], indices: Sequence[int]) -> int:
        """Exact integer sum of ``column`` at ``indices``."""
        return sum(map(column.__getitem__, indices))
