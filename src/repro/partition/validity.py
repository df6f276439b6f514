"""Validity checking, normalization, and repair of partitions.

Three rules make a partition valid (Sec 4.1.1):

1. every compute layer is assigned to exactly one subgraph, with dense
   indices ``0 .. k-1`` (the schedule order),
2. precedence — for every edge ``(u, v)``, ``P(u) <= P(v)``,
3. every subgraph is weakly connected through direct member-to-member
   edges.

:func:`normalize_groups` turns *any* raw grouping into a valid partition:
it splits disconnected groups into components, orders the groups by a
deterministic topological sort of the quotient graph and, when that sort
stalls on a quotient cycle, merges the groups on cycles (an SCC
contraction — the union of a quotient cycle is always connected, because
each group is connected and the cycle's cross edges link them) and sorts
the condensation. Every GA operator funnels its output through it,
which is what lets crossover and the mutations stay simple while still
"guaranteeing the validity of genomes" (Sec 4.4.3).

The operators and the capacity repair pass their parent partitions
along. A group equal to a parent's member set is connected already, so
normalization carries it whole, as the parent's frozenset, and splits
only the groups the operator changed; the result is the one a full pass
gives. There is one normalization routine: without parents it is the
full pass.

Normalization and validation both run over the graph's integer topology
(:meth:`~repro.graphs.graph.ComputationGraph.topology`): normalization
hands :class:`~repro.partition.partition.Partition` per-id labels and
member sets, which its constructor checks in one integer pass.
:mod:`repro.partition.reference` keeps the name-keyed original as the
test oracle.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Mapping, Sequence

from ..graphs.graph import ComputationGraph
from ..graphs.topology import GraphTopology
from .partition import Partition
from .subgraph import weakly_connected_components


def check_partition(graph: ComputationGraph, assignment: Mapping[str, int]) -> None:
    """Raise :class:`PartitionError` unless ``assignment`` is valid."""
    Partition.from_assignment(graph, assignment)


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


def _quotient(topo: GraphTopology, owner: list[int], count: int) -> list[set[int]]:
    """Successor sets of the quotient graph of ``count`` groups, where
    ``owner`` maps every id to its group (``-1`` for model inputs)."""
    quotient: list[set[int]] = [set() for _ in range(count)]
    for u, v in topo.edges:
        a = owner[u]
        b = owner[v]
        if a != b and a >= 0:
            quotient[a].add(b)
    return quotient


def _schedule(quotient: list[set[int]], owner: list[int]) -> list[int]:
    """Kahn's sort of the quotient, always taking the ready group with the
    earliest topological member (ids are distinct and ascend in
    topological order). Returns the groups in schedule order; on a
    quotient cycle the sort stalls and the list is short."""
    count = len(quotient)
    # The last write wins, so walking the ids downwards leaves each
    # group's earliest id (and a stray key -1 for the inputs).
    earliest = dict(zip(reversed(owner), range(len(owner) - 1, -1, -1)))
    indegree = [0] * count
    for targets in quotient:
        for gi in targets:
            indegree[gi] += 1
    ready = [earliest[gi] for gi in range(count) if not indegree[gi]]
    heapify(ready)
    order: list[int] = []
    while ready:
        gi = owner[heappop(ready)]
        order.append(gi)
        for nxt in quotient[gi]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                heappush(ready, earliest[nxt])
    return order


def normalize_groups(
    graph: ComputationGraph,
    groups: Sequence[Iterable[str]],
    parents: Sequence[Partition] = (),
) -> Partition:
    """Repair any raw grouping of the compute layers into a valid partition.

    ``parents`` are valid partitions of ``graph`` the grouping was bred
    from. A group equal to one of their member sets is connected already,
    so it is carried whole, as that frozenset, instead of being split
    into components; only the groups an operator changed are split. The
    result is the same with or without ``parents``.
    """
    topo = graph.topology()
    index, names, mask = topo.index, topo.names, topo.compute_mask
    whole = {s for p in parents if p.graph is graph for s in p.subgraph_sets}
    # 1. Claim layers: the first group naming a layer wins, unknown names
    #    and inputs are dropped, unclaimed layers become singletons.
    #    ``owner`` maps each id to its group (-1: unclaimed or an input,
    #    -2: claimed by a group not yet split), ``sets`` each group to its
    #    member names.
    owner = [-1] * len(names)
    sets: list[frozenset[str]] = []
    claimed = 0
    for group in groups:
        if whole and isinstance(group, (set, frozenset)) and group in whole:
            gi = len(sets)
            for name in group:
                i = index[name]
                if owner[i] != -1:
                    break
                owner[i] = gi
            else:
                sets.append(frozenset(group))  # a frozenset is its own copy
                claimed += len(group)
                continue
            for name in group:  # an earlier group took a layer: undo
                i = index[name]
                if owner[i] == gi:
                    owner[i] = -1
        ids = []
        for name in group:
            i = index.get(name)
            if i is not None and mask[i] and owner[i] == -1:
                owner[i] = -2
                ids.append(i)
        if not ids:
            continue
        claimed += len(ids)
        # 2. Split every changed multi-layer group into its components.
        if len(ids) == 1:
            parts = [frozenset([names[ids[0]]])]
        else:
            parts = weakly_connected_components(graph, [names[i] for i in ids])
        for part in parts:
            gi = len(sets)
            for name in part:
                owner[index[name]] = gi
            sets.append(part)
    if claimed < len(topo.compute):
        for i in topo.compute:
            if owner[i] == -1:
                owner[i] = len(sets)
                sets.append(frozenset([names[i]]))

    # 3. Sort the quotient. A stall means a quotient cycle: merge every
    #    strongly connected set of groups and sort again. Each such set of
    #    connected groups is linked by its own cross edges, so the merged
    #    groups stay connected and their condensation is acyclic.
    quotient = _quotient(topo, owner, len(sets))
    order = _schedule(quotient, owner)
    if len(order) < len(sets):
        sccs = _strong_components(quotient)
        merged = [-1] * (len(sets) + 1)  # the trailing -1 keeps inputs at -1
        for gi, scc in enumerate(sccs):
            for old in scc:
                merged[old] = gi
        owner = [merged[gi] for gi in owner]
        sets = [frozenset().union(*[sets[old] for old in scc]) for scc in sccs]
        quotient = _quotient(topo, owner, len(sets))
        order = _schedule(quotient, owner)

    # 4. Label every layer with its group's place in the schedule.
    position = [-1] * (len(sets) + 1)  # the trailing -1 keeps inputs at -1
    for place, gi in enumerate(order):
        position[gi] = place
    labels = [position[gi] for gi in owner]
    return Partition(graph, labels, [sets[gi] for gi in order])


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
    hardware and will be priced at infinity). Subgraphs that fit are
    handed to :func:`normalize_groups` as the partition's own member
    sets, so only the halves are split into components.
    """
    graph = partition.graph
    topo_index = graph.topo_index()
    current = partition
    for _ in range(max_rounds):
        sets = current.subgraph_sets
        oversized = [len(s) > 1 and not is_feasible(s) for s in sets]
        if not any(oversized):
            return current
        next_groups: list[frozenset[str]] = []
        for members, split in zip(sets, oversized):
            if not split:
                next_groups.append(members)
                continue
            ordered = sorted(members, key=topo_index.__getitem__)
            half = len(ordered) // 2
            next_groups.append(frozenset(ordered[:half]))
            next_groups.append(frozenset(ordered[half:]))
        # Normalization may re-merge pieces whose split created quotient
        # cycles, so feasibility is re-checked on the normalized result
        # each round; singleton quotients are DAGs, which guarantees
        # termination.
        current = normalize_groups(graph, next_groups, (current,))
    return current
