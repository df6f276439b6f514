"""Customized crossover (Sec 4.4.2, Fig 9b).

Layers are assigned in topological order. Each undecided layer picks one
parent at random and *reproduces* that parent's whole subgraph. If the
reproduced subgraph overlaps layers that were already decided, the
offspring either splits out a new subgraph holding only the undecided
remainder or merges the remainder into one of the subgraphs the decided
layers belong to (the paper's Child-1 / Child-2 alternatives). The memory
configuration of the offspring is the parents' average, rounded to the
candidate grid.

A subgraph reproduced whole is kept as the parent's own member set, and
both parents go to
:func:`~repro.partition.validity.normalize_groups`, which then splits
only the remainders and merged groups into components.
"""

from __future__ import annotations

import random

from ..partition.validity import normalize_groups
from ..search_space import CapacitySpace
from .genome import Genome


def crossover(
    dad: Genome,
    mom: Genome,
    rng: random.Random,
    space: CapacitySpace | None = None,
) -> Genome:
    """Blend two parents into one offspring genome."""
    graph = dad.partition.graph
    decided: dict[str, int] = {}
    groups: list[frozenset[str]] = []

    for name in graph.compute_names:
        if name in decided:
            continue
        parent = dad if rng.random() < 0.5 else mom
        source = parent.partition.members(parent.partition.index_of(name))
        undecided = {n for n in source if n not in decided}
        overlap_groups = sorted({decided[n] for n in source if n in decided})
        if overlap_groups and rng.random() < 0.5:
            target = rng.choice(overlap_groups)
            groups[target] = groups[target] | undecided
        else:
            # A subgraph reproduced whole stays the parent's frozenset.
            target = len(groups)
            whole = len(undecided) == len(source)
            groups.append(source if whole else frozenset(undecided))
        for member in sorted(undecided):
            decided[member] = target

    partition = normalize_groups(graph, groups, (dad.partition, mom.partition))
    if space is not None:
        memory = space.average(dad.memory, mom.memory)
    else:
        memory = dad.memory
    return Genome(partition=partition, memory=memory)
