"""Validity checking, normalization, and repair of partitions.

Three rules make a partition valid (Sec 4.1.1):

1. every compute layer is assigned to exactly one subgraph, with dense
   indices ``0 .. k-1`` (the schedule order),
2. precedence — for every edge ``(u, v)``, ``P(u) <= P(v)``,
3. every subgraph is weakly connected through direct member-to-member
   edges.

:func:`normalize_groups` turns *any* raw grouping into a valid partition:
it splits disconnected groups into components, merges groups that form
cycles in the quotient graph (an SCC contraction — the union of a quotient
cycle is always connected, because each group is connected and the cycle's
cross edges link them), and renumbers by a deterministic topological sort
of the condensation. Every GA operator funnels its output through it,
which is what lets crossover and the mutations stay simple while still
"guaranteeing the validity of genomes" (Sec 4.4.3).

Normalization and validation both run over the graph's integer topology
(:meth:`~repro.graphs.graph.ComputationGraph.topology`);
:mod:`repro.partition.reference` keeps the name-keyed original as the
test oracle.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from ..errors import PartitionError
from ..graphs.graph import ComputationGraph
from ..graphs.topology import GraphTopology
from .partition import Partition
from .subgraph import weakly_connected_components


def partition_labels(
    graph: ComputationGraph, assignment: Mapping[str, int]
) -> tuple[list[int], int]:
    """Validate ``assignment``; return its per-id labels and subgraph count.

    ``labels[i]`` is the subgraph of the layer with topology id ``i``
    (``-1`` for model inputs). One pass over the integer edge list checks
    precedence and unions the endpoints of same-subgraph edges: every
    subgraph is connected exactly when the union-find is left with one
    root per subgraph. Raises :class:`PartitionError` on a bad domain,
    non-dense indices, a precedence violation or a disconnected subgraph.
    """
    topo = graph.topology()
    index = topo.index
    mask = topo.compute_mask
    labels = [-1] * len(mask)
    for name, sub in assignment.items():
        i = index.get(name)
        if i is None or not mask[i]:
            _raise_domain(graph, assignment)
        labels[i] = sub
    if len(assignment) != len(topo.compute):
        _raise_domain(graph, assignment)
    indices = set(assignment.values())
    count = len(indices)
    if min(indices) != 0 or indices != set(range(count)):
        raise PartitionError(f"subgraph indices are not dense: {sorted(indices)[:10]}")
    parent = list(range(len(mask)))
    roots = len(topo.compute)
    for u, v in topo.edges:
        a = labels[u]
        if a < 0:  # model input: no subgraph
            continue
        b = labels[v]
        if a > b:
            raise PartitionError(
                f"precedence violated on edge ({topo.names[u]!r}, "
                f"{topo.names[v]!r}): {a} > {b}"
            )
        if a == b:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                roots -= 1
    if roots != count:
        _raise_disconnected(graph, assignment)
    return labels, count


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
    graph: ComputationGraph, assignment: Mapping[str, int]
) -> NoReturn:
    """Name the first disconnected subgraph (one exists: the root count is off)."""
    groups: dict[int, list[str]] = {}
    for name, index in assignment.items():
        groups.setdefault(index, []).append(name)
    for index in sorted(groups):
        components = weakly_connected_components(graph, groups[index])
        if len(components) != 1:
            raise PartitionError(
                f"subgraph {index} is disconnected: "
                f"{[sorted(c)[:3] for c in components]}"
            )


def check_partition(graph: ComputationGraph, assignment: Mapping[str, int]) -> None:
    """Raise :class:`PartitionError` unless ``assignment`` is valid."""
    partition_labels(graph, assignment)


def _strong_components(succ: list[set[int]]) -> list[list[int]]:
    """Strongly connected components of an integer digraph (iterative Tarjan)."""
    size = len(succ)
    order = [-1] * size
    low = [0] * size
    on_stack = bytearray(size)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(size):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if order[nxt] < 0:
                    order[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = 1
                    work.append((nxt, iter(succ[nxt])))
                    break
                if on_stack[nxt] and order[nxt] < low[node]:
                    low[node] = order[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == order[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        scc.append(member)
                        if member == node:
                            break
                    sccs.append(scc)
    return sccs


def _quotient(
    topo: GraphTopology, members: list[list[int]], owner: list[int]
) -> list[set[int]]:
    """Successor sets of the quotient graph; fills ``owner`` (id -> group)."""
    for gi, ids in enumerate(members):
        for i in ids:
            owner[i] = gi
    succs = topo.succs
    quotient: list[set[int]] = []
    for gi, ids in enumerate(members):
        targets = set()
        for i in ids:
            for j in succs[i]:
                targets.add(owner[j])
        targets.discard(gi)
        quotient.append(targets)
    return quotient


def normalize_groups(
    graph: ComputationGraph, groups: Sequence[Iterable[str]]
) -> Partition:
    """Repair any raw grouping of the compute layers into a valid partition."""
    topo = graph.topology()
    index, names = topo.index, topo.names
    # 1. Claim layers: the first group naming a layer wins, unknown names
    #    and inputs are dropped, unclaimed layers become singletons.
    free = bytearray(topo.compute_mask)
    members: list[list[int]] = []
    for group in groups:
        ids: list[int] = []
        for name in group:
            i = index.get(name)
            if i is not None and free[i]:
                free[i] = 0
                ids.append(i)
        # 2. Split every multi-layer group into its components.
        if len(ids) > 1:
            parts = weakly_connected_components(graph, [names[i] for i in ids])
            if len(parts) > 1:
                members.extend([index[n] for n in part] for part in parts)
                continue
        if ids:
            members.append(ids)
    members.extend([i] for i in topo.compute if free[i])

    # 3. Merge groups lying on quotient cycles. Each strongly connected
    #    set of connected groups is linked by its own cross edges, so the
    #    merged groups stay connected and their condensation is acyclic.
    owner = [-1] * len(names)
    quotient = _quotient(topo, members, owner)
    sccs = _strong_components(quotient)
    if len(sccs) != len(members):
        members = [[i for gi in scc for i in members[gi]] for scc in sccs]
        quotient = _quotient(topo, members, owner)

    # 4. Kahn's sort of the condensation, always taking the ready group
    #    with the earliest topological member (ids are distinct, and
    #    ``owner`` maps a group's earliest id back to the group).
    indegree = [0] * len(members)
    for targets in quotient:
        for gi in targets:
            indegree[gi] += 1
    ready = [min(ids) for gi, ids in enumerate(members) if not indegree[gi]]
    heapify(ready)
    position = [0] * len(members)
    placed = 0
    while ready:
        gi = owner[heappop(ready)]
        position[gi] = placed
        placed += 1
        for nxt in quotient[gi]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                heappush(ready, min(members[nxt]))
    return Partition(graph, {names[i]: position[owner[i]] for i in topo.compute})


def split_infeasible(
    partition: Partition,
    is_feasible: Callable[[frozenset[str]], bool],
    max_rounds: int = 64,
) -> Partition:
    """In-situ repair: split oversized subgraphs until everything fits.

    This is the paper's in-situ ``split-subgraph`` tuning (Sec 4.4.4):
    when a subgraph exceeds the buffer capacity, bisect it along the
    topological order and retry. Singleton subgraphs that still do not fit
    are left in place (the partition is then genuinely infeasible for this
    hardware and will be priced at infinity).
    """
    graph = partition.graph
    topo_index = graph.topo_index()
    current = partition
    for _ in range(max_rounds):
        groups = [set(g) for g in current.subgraph_sets]
        oversized = [
            g for g in groups if len(g) > 1 and not is_feasible(frozenset(g))
        ]
        if not oversized:
            return current
        next_groups: list[set[str]] = []
        for group in groups:
            if group not in oversized:
                next_groups.append(group)
                continue
            ordered = sorted(group, key=lambda n: topo_index[n])
            half = len(ordered) // 2
            next_groups.append(set(ordered[:half]))
            next_groups.append(set(ordered[half:]))
        # Normalization may re-merge pieces whose split created quotient
        # cycles, so feasibility is re-checked on the normalized result
        # each round; singleton quotients are DAGs, which guarantees
        # termination.
        current = normalize_groups(graph, next_groups)
    return current
