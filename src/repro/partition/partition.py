"""The partition scheme ``P: V -> N`` (Sec 4.1.1).

A :class:`Partition` assigns every *compute* layer to a subgraph index;
model inputs belong to no subgraph (they are DRAM-resident data, the
negative-numbered nodes of the paper's figures). Instances are immutable
and hashable so search code can dedupe and memoize them.

A partition is stored as integer labels over the graph's topology ids
(:meth:`~repro.graphs.graph.ComputationGraph.topology`) plus one member
set per subgraph. The constructor takes exactly that pair, the form
:func:`repro.partition.validity.normalize_groups` produces, and checks
all of it in one integer pass: the domain, dense indices, precedence on
every edge, one weakly connected component per subgraph, and member
sets that agree with the labels. Name-keyed inputs (checkpoints,
:func:`~repro.partition.validity.check_partition`, the ``from_*``
builders) go through :meth:`Partition.from_assignment`, which converts
names to labels first. Operators that produce raw groupings go through
``normalize_groups`` instead.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NoReturn, Sequence

from ..errors import PartitionError
from ..graphs.graph import ComputationGraph
from .subgraph import weakly_connected_components


class Partition:
    """Immutable, validated assignment of compute layers to subgraphs."""

    __slots__ = ("graph", "_labels", "_sets", "__weakref__")

    def __init__(
        self,
        graph: ComputationGraph,
        labels: Sequence[int],
        sets: Sequence[frozenset[str]],
    ):
        """Validate and wrap per-id ``labels`` and their member ``sets``.

        ``labels[i]`` is the subgraph of the layer with topology id ``i``
        (``-1`` for model inputs); ``sets[k]`` holds the names labelled
        ``k``. Raises :class:`PartitionError` on a bad domain, non-dense
        indices, sets that disagree with the labels, a precedence
        violation or a disconnected subgraph.
        """
        topo = graph.topology()
        labels = tuple(labels)
        sets = tuple(sets)
        if len(labels) != len(topo.names):
            raise PartitionError(
                f"expected {len(topo.names)} labels, got {len(labels)}"
            )
        if any(labels[i] != -1 for i in topo.inputs):
            raise PartitionError("a model input is assigned to a subgraph")
        if not all(sets):
            raise PartitionError(
                f"subgraph indices are not dense: subgraph "
                f"{[len(s) for s in sets].index(0)} is empty"
            )
        # Every member of ``sets[k]`` is a layer labelled ``k``: members
        # map to distinct ids (one label each), none of them an input
        # (inputs are -1), so with as many members as compute layers the
        # sets cover each compute layer once, and its label is its set's.
        index = topo.index
        try:
            for k, members in enumerate(sets):
                for name in members:
                    if labels[index[name]] != k:
                        raise PartitionError(
                            f"layer {name!r} is in subgraph {k}'s member set "
                            f"but labelled {labels[index[name]]}"
                        )
        except KeyError as exc:
            raise PartitionError(f"unknown layer {exc.args[0]!r}") from None
        if sum(map(len, sets)) != len(topo.compute):
            raise PartitionError("the member sets do not cover the compute layers")
        # One pass over the edges checks precedence (an input's -1 comes
        # before every subgraph) and unions the endpoints of same-subgraph
        # edges: every subgraph is connected exactly when the union-find
        # keeps one root per subgraph.
        parent = list(range(len(labels)))
        roots = len(topo.compute)
        for u, v in topo.edges:
            a = labels[u]
            b = labels[v]
            if a != b:
                if a > b:
                    raise PartitionError(
                        f"precedence violated on edge ({topo.names[u]!r}, "
                        f"{topo.names[v]!r}): {a} > {b}"
                    )
                continue
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                roots -= 1
        if roots != len(sets):
            _raise_disconnected(graph, sets)
        self.graph = graph
        self._labels = labels
        self._sets = sets

    # ------------------------------------------------------------------
    @staticmethod
    def from_assignment(
        graph: ComputationGraph, assignment: Mapping[str, int]
    ) -> "Partition":
        """Build from a name-keyed ``layer -> subgraph`` mapping."""
        topo = graph.topology()
        index, mask = topo.index, topo.compute_mask
        labels = [-1] * len(mask)
        groups: dict[int, list[str]] = {}
        for name, sub in assignment.items():
            i = index.get(name)
            if i is None or not mask[i]:
                _raise_domain(graph, assignment)
            labels[i] = sub
            groups.setdefault(sub, []).append(name)
        if len(assignment) != len(topo.compute):
            _raise_domain(graph, assignment)
        count = len(groups)
        if not all(k in groups for k in range(count)):
            raise PartitionError(
                f"subgraph indices are not dense: {sorted(groups)[:10]}"
            )
        return Partition(graph, labels, [frozenset(groups[k]) for k in range(count)])

    @staticmethod
    def from_groups(
        graph: ComputationGraph, groups: Sequence[Iterable[str]]
    ) -> "Partition":
        """Build from subgraph member sets already in schedule order."""
        assignment: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in assignment:
                    raise PartitionError(f"layer {name!r} appears in two subgraphs")
                assignment[name] = index
        return Partition.from_assignment(graph, assignment)

    @staticmethod
    def singletons(graph: ComputationGraph) -> "Partition":
        """The layer-level partition: every compute layer on its own."""
        names = graph.compute_names
        return Partition.from_assignment(
            graph, {name: i for i, name in enumerate(names)}
        )

    @staticmethod
    def whole_graph(graph: ComputationGraph) -> "Partition":
        """All compute layers fused into a single subgraph."""
        return Partition.from_assignment(
            graph, {name: 0 for name in graph.compute_names}
        )

    # ------------------------------------------------------------------
    @property
    def num_subgraphs(self) -> int:
        return len(self._sets)

    @property
    def subgraph_sets(self) -> tuple[frozenset[str], ...]:
        """Member sets, indexed by subgraph number (= schedule order)."""
        return self._sets

    @property
    def labels(self) -> tuple[int, ...]:
        """Subgraph of each topology id (``-1`` for model inputs)."""
        return self._labels

    def index_of(self, name: str) -> int:
        """Subgraph index of a compute layer."""
        i = self.graph.topology().index.get(name)
        if i is None or self._labels[i] < 0:
            raise PartitionError(f"layer {name!r} is not assigned")
        return self._labels[i]

    def members(self, index: int) -> frozenset[str]:
        """Member set of subgraph ``index``."""
        if not 0 <= index < len(self._sets):
            raise PartitionError(f"no subgraph {index}")
        return self._sets[index]

    @property
    def assignment(self) -> dict[str, int]:
        """A fresh layer -> subgraph mapping, in compute (topological) order."""
        topo = self.graph.topology()
        names, labels = topo.names, self._labels
        return {names[i]: labels[i] for i in topo.compute}

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.graph is other.graph and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((id(self.graph), self._labels))

    def __repr__(self) -> str:
        sizes = [len(s) for s in self._sets]
        return f"Partition({self.graph.name!r}, subgraphs={sizes})"


def _raise_domain(graph: ComputationGraph, assignment: Mapping[str, int]) -> NoReturn:
    """Name the missing and extra layers of a bad assignment domain."""
    compute = set(graph.compute_names)
    assigned = set(assignment)
    missing = sorted(compute - assigned)
    extra = sorted(assigned - compute)
    raise PartitionError(
        f"bad assignment domain: missing={missing[:5]} extra={extra[:5]}"
    )


def _raise_disconnected(
    graph: ComputationGraph, sets: Sequence[frozenset[str]]
) -> NoReturn:
    """Name the first disconnected subgraph (the root count says one exists)."""
    for index, members in enumerate(sets):
        components = weakly_connected_components(graph, members)
        if len(components) != 1:
            raise PartitionError(
                f"subgraph {index} is disconnected: "
                f"{[sorted(c)[:3] for c in components]}"
            )
    raise PartitionError("the subgraphs have more components than subgraphs")
