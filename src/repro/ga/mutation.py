"""The four customized mutation operations (Sec 4.4.3, Fig 9c-e).

* ``modify-node`` — move one randomly chosen layer into a neighboring
  subgraph or a fresh singleton,
* ``split-subgraph`` — cut one subgraph in two along its topological
  order,
* ``merge-subgraph`` — fuse two adjacent subgraphs,
* ``mutation-DSE`` — Gaussian-resample the memory configuration on the
  candidate grid.

Every operator emits its raw grouping through
:func:`~repro.partition.validity.normalize_groups`, which restores
precedence/connectivity, so genomes stay valid by construction. The
operators pass the parent partition along and keep every subgraph they
did not touch as the parent's own member set, so normalization splits
only the one or two groups a mutation changed.
"""

from __future__ import annotations

import random

from ..partition.validity import normalize_groups
from ..search_space import CapacitySpace
from .genome import Genome


def modify_node(genome: Genome, rng: random.Random) -> Genome:
    """Reassign one random layer to a neighbor's subgraph or a new one."""
    partition = genome.partition
    graph = partition.graph
    topo = graph.topology()
    labels = partition.labels
    name = rng.choice(graph.compute_names)
    i = topo.index[name]
    current = labels[i]
    # Model inputs carry the label -1: they belong to no subgraph.
    neighbor_indices = sorted(
        {labels[j] for j in (*topo.preds[i], *topo.succs[i])} - {current, -1}
    )
    groups = list(partition.subgraph_sets)
    groups[current] = groups[current] - {name}
    if neighbor_indices and rng.random() < 0.7:
        target = rng.choice(neighbor_indices)
        groups[target] = groups[target] | {name}
    else:
        groups.append(frozenset([name]))
    return genome.with_partition(normalize_groups(graph, groups, (partition,)))


def split_subgraph(genome: Genome, rng: random.Random) -> Genome:
    """Split one randomly selected multi-layer subgraph in two."""
    partition = genome.partition
    graph = partition.graph
    splittable = [i for i, s in enumerate(partition.subgraph_sets) if len(s) >= 2]
    if not splittable:
        return genome
    target = rng.choice(splittable)
    ordered = sorted(partition.members(target), key=graph.topo_index().__getitem__)
    cut = rng.randint(1, len(ordered) - 1)
    groups = list(partition.subgraph_sets)
    groups[target] = frozenset(ordered[:cut])
    groups.append(frozenset(ordered[cut:]))
    return genome.with_partition(normalize_groups(graph, groups, (partition,)))


def merge_subgraph(genome: Genome, rng: random.Random) -> Genome:
    """Merge two randomly selected adjacent subgraphs into one."""
    partition = genome.partition
    graph = partition.graph
    labels = partition.labels
    # Precedence makes every cross edge run from a lower label to a
    # higher one, so ``(labels[u], labels[v])`` is already sorted.
    pairs = sorted(
        {(labels[u], labels[v]) for u, v in graph.topology().edges
         if 0 <= labels[u] != labels[v]}
    )
    if not pairs:
        return genome
    a, b = rng.choice(pairs)
    groups = list(partition.subgraph_sets)
    merged = groups.pop(b)
    groups[a] = groups[a] | merged
    return genome.with_partition(normalize_groups(graph, groups, (partition,)))


def mutate_dse(
    genome: Genome, rng: random.Random, space: CapacitySpace, sigma_steps: float = 3.0
) -> Genome:
    """mutation-DSE: resample the memory configuration near the current one."""
    return genome.with_memory(space.perturb(genome.memory, rng, sigma_steps))


#: Partition-space mutation operators, keyed by the paper's names.
MUTATION_OPS = {
    "modify-node": modify_node,
    "split-subgraph": split_subgraph,
    "merge-subgraph": merge_subgraph,
}
