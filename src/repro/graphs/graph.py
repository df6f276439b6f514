"""The computation-graph DAG.

A DNN model is a directed acyclic graph ``G = (V, E)`` whose vertices are
layers and whose edge ``(u, v)`` says the output of ``u`` feeds ``v``
(Sec 4.1.1). The class below keeps deterministic insertion order for all
iteration (so seeded experiments are reproducible), validates acyclicity
and connectivity eagerly, and caches the topological order and the views
derived from it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import GraphError
from .ops import LayerSpec
from .topology import GraphTopology


class ComputationGraph:
    """A DAG of :class:`LayerSpec` nodes with named edges."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._layers: dict[str, LayerSpec] = {}
        self._preds: dict[str, tuple[str, ...]] = {}
        self._succs: dict[str, list[str]] = {}
        self._topo_cache: tuple[str, ...] | None = None
        self._topo_index_cache: dict[str, int] | None = None
        self._succ_map_cache: dict[str, tuple[str, ...]] | None = None
        self._edges_cache: tuple[tuple[str, str], ...] | None = None
        self._compute_cache: tuple[str, ...] | None = None
        self._topology_cache: GraphTopology | None = None
        self._arrays_cache: dict[int, object] = {}
        self._tiling_cache: object | None = None
        self._store_cache: object | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_layer(self, spec: LayerSpec, inputs: Iterable[str] = ()) -> str:
        """Add a layer fed by the named ``inputs``; returns the layer name."""
        inputs = tuple(inputs)
        if spec.name in self._layers:
            raise GraphError(f"duplicate layer name {spec.name!r}")
        for parent in inputs:
            if parent not in self._layers:
                raise GraphError(
                    f"layer {spec.name!r} references unknown input {parent!r}"
                )
        if spec.is_input and inputs:
            raise GraphError(f"input layer {spec.name!r} cannot have producers")
        if not spec.is_input and not inputs:
            raise GraphError(f"compute layer {spec.name!r} must have >= 1 input")
        if len(set(inputs)) != len(inputs):
            raise GraphError(f"layer {spec.name!r} lists a duplicate input")
        self._layers[spec.name] = spec
        self._preds[spec.name] = inputs
        self._succs[spec.name] = []
        for parent in inputs:
            self._succs[parent].append(spec.name)
        self._topo_cache = None
        self._topo_index_cache = None
        self._succ_map_cache = None
        self._edges_cache = None
        self._compute_cache = None
        self._topology_cache = None
        self._arrays_cache.clear()
        self._tiling_cache = None
        self._store_cache = None
        return spec.name

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._layers)

    def __contains__(self, name: object) -> bool:
        return name in self._layers

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def layer(self, name: str) -> LayerSpec:
        """The :class:`LayerSpec` for ``name``."""
        try:
            return self._layers[name]
        except KeyError:
            raise GraphError(f"unknown layer {name!r}") from None

    @property
    def layer_names(self) -> tuple[str, ...]:
        """All layer names in insertion order."""
        return tuple(self._layers)

    def predecessors(self, name: str) -> tuple[str, ...]:
        """Producers feeding ``name``, in declaration order."""
        self.layer(name)
        return self._preds[name]

    def successors(self, name: str) -> tuple[str, ...]:
        """Consumers of ``name``, in insertion order."""
        self.layer(name)
        return self.successor_map()[name]

    def successor_map(self) -> dict[str, tuple[str, ...]]:
        """Cached ``{layer: consumers}`` adjacency (insertion order)."""
        if self._succ_map_cache is None:
            self._succ_map_cache = {
                name: tuple(succs) for name, succs in self._succs.items()
            }
        return self._succ_map_cache

    def predecessor_map(self) -> dict[str, tuple[str, ...]]:
        """``{layer: producers}`` adjacency (declaration order).

        The underlying dict is immutable once built (predecessors are
        fixed at :meth:`add_layer` time), so it is shared, not copied.
        """
        return self._preds

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """All ``(producer, consumer)`` pairs, deterministic order (cached)."""
        if self._edges_cache is None:
            self._edges_cache = tuple(
                (parent, child)
                for child in self._layers
                for parent in self._preds[child]
            )
        return self._edges_cache

    @property
    def input_names(self) -> tuple[str, ...]:
        """Names of the model's :class:`OpKind.INPUT` nodes."""
        return tuple(n for n, s in self._layers.items() if s.is_input)

    @property
    def compute_names(self) -> tuple[str, ...]:
        """Names of all non-input layers, in topological order (cached)."""
        if self._compute_cache is None:
            self._compute_cache = tuple(
                n for n in self.topological_order() if not self._layers[n].is_input
            )
        return self._compute_cache

    @property
    def output_names(self) -> tuple[str, ...]:
        """Layers with no consumers — the model outputs."""
        return tuple(n for n, succ in self._succs.items() if not succ)

    def topological_order(self) -> tuple[str, ...]:
        """Deterministic topological order (Kahn's, insertion tie-break)."""
        if self._topo_cache is not None:
            return self._topo_cache
        indegree = {name: len(self._preds[name]) for name in self._layers}
        ready = [name for name in self._layers if indegree[name] == 0]
        order: list[str] = []
        cursor = 0
        while cursor < len(ready):
            node = ready[cursor]
            cursor += 1
            order.append(node)
            for child in self._succs[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._layers):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        self._topo_cache = tuple(order)
        return self._topo_cache

    def topo_index(self) -> dict[str, int]:
        """Map layer name -> position in the topological order (cached)."""
        if self._topo_index_cache is None:
            self._topo_index_cache = {
                name: i for i, name in enumerate(self.topological_order())
            }
        return self._topo_index_cache

    def topology(self) -> GraphTopology:
        """Cached :class:`~repro.graphs.topology.GraphTopology` for this graph.

        Integer-id predecessor/successor tuples and edge list, indexed by
        topological position; the partition layer's normalization and
        validation run over these instead of layer names. Built on first
        use, not with the graph.
        """
        if self._topology_cache is None:
            self._topology_cache = GraphTopology(self)
        return self._topology_cache

    def arrays(self, bytes_per_element: int = 1):
        """Cached :class:`~repro.graphs.arrays.GraphArrays` for this graph.

        Per-layer constant columns (weight bytes, MACs, output bytes,
        row bytes) as tuples of ints indexed by topological position, so
        hot-path aggregations sum over ids instead of walking layers by
        name.
        """
        cached = self._arrays_cache.get(bytes_per_element)
        if cached is None:
            from .arrays import GraphArrays

            cached = GraphArrays(self, bytes_per_element)
            self._arrays_cache[bytes_per_element] = cached
        return cached

    def tiling_table(self):
        """Cached :class:`~repro.execution.tiling.TilingTable` for this graph.

        Per-layer heights and per-edge consumer kinds, consumption ratios
        and window offsets, indexed by topological position, so a
        :class:`~repro.execution.tiling.TilingStructure` build reads them
        instead of walking the graph by name. Built on first use, not
        with the graph.
        """
        if self._tiling_cache is None:
            from ..execution.tiling import TilingTable

            self._tiling_cache = TilingTable(self)
        return self._tiling_cache

    def subgraph_store(self):
        """Cached :class:`~repro.cost.store.SubgraphStore` for this graph.

        The memory-independent facts of this graph's subgraphs (tiling
        structures, profiles, minimum footprints), shared by every
        evaluator of the graph in the process. Built empty on first use,
        not with the graph, and dropped by :meth:`add_layer`.
        """
        if self._store_cache is None:
            from ..cost.store import SubgraphStore

            self._store_cache = SubgraphStore(self)
        return self._store_cache

    def depth(self) -> dict[str, int]:
        """Longest-path depth of each layer (inputs have depth 0)."""
        depths: dict[str, int] = {}
        for name in self.topological_order():
            preds = self._preds[name]
            depths[name] = 0 if not preds else 1 + max(depths[p] for p in preds)
        return depths

    def validate(self) -> None:
        """Raise :class:`GraphError` on any structural problem."""
        self.topological_order()
        if not self.input_names:
            raise GraphError(f"graph {self.name!r} has no input node")
        if not self.compute_names:
            raise GraphError(f"graph {self.name!r} has no compute layers")
        for name in self.output_names:
            if self.layer(name).is_input:
                raise GraphError(f"input layer {name!r} is never consumed")

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_weight_bytes(self) -> int:
        """Total weight footprint across all layers."""
        return sum(s.weight_bytes for s in self._layers.values())

    @property
    def total_macs(self) -> int:
        """Total MAC count across all layers."""
        return sum(s.macs for s in self._layers.values())

    def activation_bytes(self, name: str, bytes_per_element: int = 1) -> int:
        """Bytes of the activation tensor produced by ``name``."""
        return self.layer(name).output_bytes(bytes_per_element)

    def model_input_bytes(self, bytes_per_element: int = 1) -> int:
        """Total bytes of all model input tensors."""
        return sum(
            self.activation_bytes(n, bytes_per_element) for n in self.input_names
        )

    def model_output_bytes(self, bytes_per_element: int = 1) -> int:
        """Total bytes of all model output tensors."""
        return sum(
            self.activation_bytes(n, bytes_per_element) for n in self.output_names
        )

    def __repr__(self) -> str:
        return (
            f"ComputationGraph({self.name!r}, layers={len(self)}, "
            f"edges={len(self.edges)})"
        )
