"""The partition scheme ``P: V -> N`` (Sec 4.1.1).

A :class:`Partition` assigns every *compute* layer to a subgraph index;
model inputs belong to no subgraph (they are DRAM-resident data, the
negative-numbered nodes of the paper's figures). Instances are immutable
and hashable so search code can dedupe and memoize them. Construction
validates precedence, connectivity, and index density — operators that
may produce raw groupings should go through
:func:`repro.partition.validity.normalize_groups` instead.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..errors import PartitionError
from ..graphs.graph import ComputationGraph


class Partition:
    """Immutable, validated assignment of compute layers to subgraphs."""

    __slots__ = ("graph", "_assignment", "_sets", "_key", "__weakref__")

    def __init__(self, graph: ComputationGraph, assignment: Mapping[str, int]):
        from .validity import partition_labels  # deferred: circular import

        labels, count = partition_labels(graph, assignment)
        self.graph = graph
        self._assignment = dict(assignment)
        sets: list[list[str]] = [[] for _ in range(count)]
        for name, index in self._assignment.items():
            sets[index].append(name)
        self._sets = tuple(map(frozenset, sets))
        self._key = tuple(map(labels.__getitem__, graph.topology().compute))

    # ------------------------------------------------------------------
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
        return Partition(graph, assignment)

    @staticmethod
    def singletons(graph: ComputationGraph) -> "Partition":
        """The layer-level partition: every compute layer on its own."""
        names = graph.compute_names
        return Partition(graph, {name: i for i, name in enumerate(names)})

    @staticmethod
    def whole_graph(graph: ComputationGraph) -> "Partition":
        """All compute layers fused into a single subgraph."""
        return Partition(graph, {name: 0 for name in graph.compute_names})

    # ------------------------------------------------------------------
    @property
    def num_subgraphs(self) -> int:
        return len(self._sets)

    @property
    def subgraph_sets(self) -> tuple[frozenset[str], ...]:
        """Member sets, indexed by subgraph number (= schedule order)."""
        return self._sets

    def index_of(self, name: str) -> int:
        """Subgraph index of a compute layer."""
        try:
            return self._assignment[name]
        except KeyError:
            raise PartitionError(f"layer {name!r} is not assigned") from None

    def members(self, index: int) -> frozenset[str]:
        """Member set of subgraph ``index``."""
        if not 0 <= index < len(self._sets):
            raise PartitionError(f"no subgraph {index}")
        return self._sets[index]

    @property
    def assignment(self) -> dict[str, int]:
        """A copy of the layer -> subgraph mapping."""
        return dict(self._assignment)

    def groups(self) -> list[set[str]]:
        """Mutable copies of the member sets (for operators)."""
        return [set(s) for s in self._sets]

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.graph is other.graph and self._key == other._key

    def __hash__(self) -> int:
        return hash((id(self.graph), self._key))

    def __repr__(self) -> str:
        sizes = [len(s) for s in self._sets]
        return f"Partition({self.graph.name!r}, subgraphs={sizes})"
