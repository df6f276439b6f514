"""Subgraph-level graph utilities shared by partition code."""

from __future__ import annotations

from typing import Iterable, Mapping

from ..errors import GraphError
from ..graphs.graph import ComputationGraph


def weakly_connected_components(
    graph: ComputationGraph, members: Iterable[str]
) -> list[frozenset[str]]:
    """Weakly connected components of the member-induced subgraph.

    Connectivity counts only direct edges between members — "any subgraph
    should be connected in G, otherwise meaningless" (Sec 4.1.1).
    Components are returned in topological order of their earliest member.
    A flood fill over the graph's integer topology keeps this linear in
    the members and their edges; it runs on every operator output.
    """
    topo = graph.topology()
    index = topo.index
    try:
        ids = sorted({index[n] for n in members})
    except KeyError as exc:
        raise GraphError(f"unknown layer {exc.args[0]!r}") from None
    preds, succs, names = topo.preds, topo.succs, topo.names
    pending = bytearray(len(names))
    for i in ids:
        pending[i] = 1
    left = len(ids)
    components: list[frozenset[str]] = []
    # Seeds in ascending id order: each component's seed is its earliest
    # member, so components come out in topological order.
    for seed in ids:
        if not pending[seed]:
            continue
        pending[seed] = 0
        component = [seed]
        for node in component:  # grows while it is walked: a BFS queue
            for other in preds[node]:
                if pending[other]:
                    pending[other] = 0
                    component.append(other)
            for other in succs[node]:
                if pending[other]:
                    pending[other] = 0
                    component.append(other)
        components.append(frozenset([names[i] for i in component]))
        left -= len(component)
        if not left:
            break
    return components


def quotient_edges(
    graph: ComputationGraph, assignment: Mapping[str, int]
) -> set[tuple[int, int]]:
    """Directed edges between distinct subgraphs of an assignment."""
    edges: set[tuple[int, int]] = set()
    for producer, consumer in graph.edges:
        if producer in assignment and consumer in assignment:
            a, b = assignment[producer], assignment[consumer]
            if a != b:
                edges.add((a, b))
    return edges


def quotient_reachable(
    edges: set[tuple[int, int]], start: int, target: int, skip_direct: bool
) -> bool:
    """Whether ``target`` is reachable from ``start`` in the quotient.

    With ``skip_direct`` the direct edge ``(start, target)`` is ignored —
    used to decide whether merging two subgraphs would create a cycle.
    """
    adjacency: dict[int, list[int]] = {}
    for a, b in sorted(edges):
        if skip_direct and (a, b) == (start, target):
            continue
        adjacency.setdefault(a, []).append(b)
    stack = [start]
    seen = {start}
    while stack:
        node = stack.pop()
        for nxt in adjacency.get(node, ()):
            if nxt == target:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False
