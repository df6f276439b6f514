"""Integer-id adjacency of a computation graph for the partition layer.

Partition normalization and validation run on every GA operator output,
SA move and repair round. :class:`GraphTopology` gives that code the
graph's structure as plain integer tuples, so union-find, SCC
contraction and the condensation sort index lists instead of hashing
layer names.

A layer's id is its topological position — the same index
:meth:`~repro.graphs.graph.ComputationGraph.topo_index` and
:class:`~repro.graphs.arrays.GraphArrays` use — so model inputs have ids
too, and ascending id order is a topological order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .graph import ComputationGraph


class GraphTopology:
    """Immutable id-indexed adjacency of one graph (build via ``graph.topology()``)."""

    __slots__ = ("names", "index", "preds", "succs", "edges", "compute", "compute_mask")

    def __init__(self, graph: "ComputationGraph"):
        names = graph.topological_order()
        index = graph.topo_index()
        pred_map = graph.predecessor_map()
        succ_map = graph.successor_map()
        #: Layer name of each id.
        self.names: tuple[str, ...] = names
        #: Id of each layer name.
        self.index: dict[str, int] = index
        #: Producer ids of each id, in declaration order.
        self.preds: tuple[tuple[int, ...], ...] = tuple(
            tuple(index[p] for p in pred_map[name]) for name in names
        )
        #: Consumer ids of each id, in insertion order.
        self.succs: tuple[tuple[int, ...], ...] = tuple(
            tuple(index[s] for s in succ_map[name]) for name in names
        )
        #: ``(producer, consumer)`` id pairs, in ``graph.edges`` order.
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (index[u], index[v]) for u, v in graph.edges
        )
        #: Ids of the compute layers, ascending (``graph.compute_names``).
        self.compute: tuple[int, ...] = tuple(index[n] for n in graph.compute_names)
        #: ``compute_mask[i]`` is 1 when id ``i`` is a compute layer.
        mask = bytearray(len(names))
        for i in self.compute:
            mask[i] = 1
        self.compute_mask = bytes(mask)
