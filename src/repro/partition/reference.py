"""The retained string-keyed partition repair (equivalence oracle).

:mod:`repro.partition.validity` and :mod:`repro.partition.subgraph`
normalize and validate partitions over the graph's integer topology
(:meth:`~repro.graphs.graph.ComputationGraph.topology`). This module
keeps the straightforward name-keyed implementation they replaced:
set-based union-find, Tarjan contraction and a sorted-list Kahn sort,
plus the second split-and-contract pass the fast path proves redundant.
``tests/partition/test_reference_equivalence.py`` checks the fast path
against it on random groupings of random DAGs and of every zoo network.
Production code never imports it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..errors import PartitionError
from ..graphs.graph import ComputationGraph
from .partition import Partition


def weakly_connected_components(
    graph: ComputationGraph, members: Iterable[str]
) -> list[frozenset[str]]:
    """Weakly connected components of the member-induced subgraph.

    Components are returned in topological order of their earliest member.
    """
    members = set(members)
    ordered = sorted(members)
    parent = {n: n for n in ordered}

    def find(node: str) -> str:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for node in ordered:
        for other in graph.predecessors(node):
            if other in members:
                ra, rb = find(node), find(other)
                if ra != rb:
                    parent[ra] = rb
    buckets: dict[str, set[str]] = {}
    for node in ordered:
        buckets.setdefault(find(node), set()).add(node)
    topo_index = graph.topo_index()
    components = [frozenset(c) for c in buckets.values()]
    components.sort(key=lambda c: min(topo_index[n] for n in c))
    return components


def check_partition(graph: ComputationGraph, assignment: Mapping[str, int]) -> None:
    """Raise :class:`PartitionError` unless ``assignment`` is valid."""
    compute = set(graph.compute_names)
    assigned = set(assignment)
    if assigned != compute:
        missing = sorted(compute - assigned)
        extra = sorted(assigned - compute)
        raise PartitionError(
            f"bad assignment domain: missing={missing[:5]} extra={extra[:5]}"
        )
    indices = set(assignment.values())
    if min(indices) != 0 or indices != set(range(len(indices))):
        raise PartitionError(f"subgraph indices are not dense: {sorted(indices)[:10]}")
    for producer, consumer in graph.edges:
        if producer in assignment and consumer in assignment:
            if assignment[producer] > assignment[consumer]:
                raise PartitionError(
                    f"precedence violated on edge ({producer!r}, {consumer!r}): "
                    f"{assignment[producer]} > {assignment[consumer]}"
                )
    groups: dict[int, set[str]] = {}
    for name, index in assignment.items():
        groups.setdefault(index, set()).add(name)
    for index, members in groups.items():
        components = weakly_connected_components(graph, members)
        if len(components) != 1:
            raise PartitionError(
                f"subgraph {index} is disconnected: "
                f"{[sorted(c)[:3] for c in components]}"
            )


def _condensation_order(
    graph: ComputationGraph, groups: list[frozenset[str]]
) -> list[int]:
    """Topological order of group indices after SCC contraction is a DAG."""
    topo_index = graph.topo_index()
    owner: dict[str, int] = {}
    for gi, group in enumerate(groups):
        for name in group:
            owner[name] = gi
    succ: dict[int, set[int]] = {gi: set() for gi in range(len(groups))}
    indegree = {gi: 0 for gi in range(len(groups))}
    for producer, consumer in graph.edges:
        a, b = owner.get(producer), owner.get(consumer)
        if a is None or b is None or a == b:
            continue
        if b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1
    rank = {gi: min(topo_index[n] for n in group) for gi, group in enumerate(groups)}
    ready = sorted(
        (gi for gi in indegree if indegree[gi] == 0), key=lambda gi: rank[gi]
    )
    order: list[int] = []
    while ready:
        ready.sort(key=lambda gi: rank[gi])
        node = ready.pop(0)
        order.append(node)
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(groups):
        raise PartitionError("quotient graph still cyclic after contraction")
    return order


def _contract_cycles(
    graph: ComputationGraph, groups: list[frozenset[str]]
) -> list[frozenset[str]]:
    """Merge groups lying on quotient cycles (Tarjan SCC contraction)."""
    owner: dict[str, int] = {}
    for gi, group in enumerate(groups):
        for name in group:
            owner[name] = gi
    succ: dict[int, set[int]] = {gi: set() for gi in range(len(groups))}
    for producer, consumer in graph.edges:
        a, b = owner.get(producer), owner.get(consumer)
        if a is not None and b is not None and a != b:
            succ[a].add(b)

    # Iterative Tarjan over the quotient graph.
    index_counter = 0
    stack: list[int] = []
    on_stack: set[int] = set()
    indices: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    sccs: list[list[int]] = []

    for root in range(len(groups)):
        if root in indices:
            continue
        work = [(root, iter(sorted(succ[root])))]
        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in indices:
                    indices[nxt] = lowlink[nxt] = index_counter
                    index_counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(succ[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], indices[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)

    return [frozenset().union(*(groups[gi] for gi in scc)) for scc in sccs]


def normalize_groups(
    graph: ComputationGraph, groups: Sequence[Iterable[str]]
) -> Partition:
    """Repair any raw grouping of the compute layers into a valid partition."""
    compute = set(graph.compute_names)
    seen: set[str] = set()
    cleaned: list[frozenset[str]] = []
    for group in groups:
        members = {n for n in group if n in compute and n not in seen}
        seen.update(members)
        if not members:
            continue
        cleaned.extend(weakly_connected_components(graph, members))
    unassigned = compute - seen
    for name in sorted(unassigned):
        cleaned.append(frozenset([name]))

    contracted = _contract_cycles(graph, cleaned)
    # Re-split and re-contract the merged groups (redundant: every merged
    # strongly connected set of connected groups is itself connected).
    final: list[frozenset[str]] = []
    for group in contracted:
        final.extend(weakly_connected_components(graph, group))
    final = _contract_cycles(graph, final)
    order = _condensation_order(graph, final)
    ordered = [final[gi] for gi in order]
    return Partition.from_groups(graph, ordered)
