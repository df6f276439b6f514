"""The optimization problem shared by every search method.

Bundles the evaluation environment with the objective (Formula 1 for
partition-only search, Formula 2 for hardware-mapping co-exploration) and
the in-situ capacity repair of Sec 4.4.4, so the GA, SA, and the two-step
baselines all optimize exactly the same cost surface.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..config import MemoryConfig
from ..cost.evaluator import Evaluator, PartitionCost
from ..cost.objective import Metric, co_opt_objective, partition_objective
from ..errors import ConfigError
from ..graphs.graph import ComputationGraph
from ..partition.random_init import random_partition
from ..partition.validity import split_infeasible
from ..search_space import CapacitySpace
from .genome import Genome


@dataclass
class OptimizationProblem:
    """Cost surface for partition search or partition+memory co-search.

    With ``alpha`` set the objective is Formula 2 (co-exploration); with
    ``alpha=None`` it is Formula 1 at the fixed ``memory``. ``space`` being
    ``None`` pins every genome to ``fixed_memory``.

    Fitness is incremental: :meth:`cost` reads
    :meth:`~repro.cost.evaluator.Evaluator.summarize` (cached
    per-subgraph scalar aggregates, so a child genome re-prices only the
    subgraphs that differ from its parents), and repair probes use the
    pricing-free :meth:`~repro.cost.evaluator.Evaluator.feasible`. A
    :class:`~repro.cost.reference.ReferenceEvaluator` turns both back
    into full pricing, bit-identically.
    """

    evaluator: Evaluator
    metric: Metric = Metric.EMA
    alpha: float | None = None
    space: CapacitySpace | None = None
    fixed_memory: MemoryConfig | None = None
    _fitness_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.space is None and self.fixed_memory is None:
            raise ConfigError("need either a capacity space or a fixed memory")

    @property
    def graph(self) -> ComputationGraph:
        return self.evaluator.graph

    # ------------------------------------------------------------------
    def memory_of(self, genome: Genome) -> MemoryConfig:
        """The memory configuration a genome is priced under."""
        if self.space is None:
            assert self.fixed_memory is not None
            return self.fixed_memory
        return genome.memory

    def random_genome(self, rng: random.Random, p_new: float = 0.5) -> Genome:
        """Sample a random valid genome (partition + capacity)."""
        partition = random_partition(self.graph, rng, p_new=p_new)
        if self.space is not None:
            memory = self.space.sample(rng)
        else:
            assert self.fixed_memory is not None
            memory = self.fixed_memory
        return self.repair(Genome(partition=partition, memory=memory))

    # ------------------------------------------------------------------
    def repair(self, genome: Genome) -> Genome:
        """In-situ tuning: split subgraphs that exceed the buffer capacity."""
        memory = self.memory_of(genome)

        def fits(members: frozenset[str]) -> bool:
            return self.evaluator.feasible(members, memory)

        repaired = split_infeasible(genome.partition, fits)
        if repaired is genome.partition:
            return genome
        return genome.with_partition(repaired)

    def prime(self, genomes: Sequence[Genome]) -> None:
        """Batch-price all unseen subgraphs of a genome batch at once.

        Hands them to :meth:`~repro.cost.evaluator.Evaluator.
        prime_summaries` — deduped, shape-class batched tensor pricing
        with closed-form direct solves (see :mod:`repro.cost.batch`).
        Priming only fills the evaluator's summary cache, so the
        subsequent per-genome :meth:`cost` calls return bit-identical
        values — just without per-genome pricing work.
        """
        if not genomes:
            return
        self.evaluator.prime_summaries(
            [g.partition.subgraph_sets for g in genomes],
            [self.memory_of(g) for g in genomes],
        )

    def evaluate(self, genome: Genome) -> tuple[float, PartitionCost]:
        """Objective value and the underlying partition cost."""
        memory = self.memory_of(genome)
        cost = self.evaluator.evaluate(genome.partition.subgraph_sets, memory)
        if self.alpha is None:
            return partition_objective(cost, self.metric), cost
        return co_opt_objective(cost, memory, self.alpha, self.metric), cost

    def cost(self, genome: Genome) -> float:
        """Objective value only, memoized per genome key.

        Derived from :meth:`Evaluator.summarize` — running sums over
        cached per-subgraph scalars — instead of a full
        :class:`PartitionCost`; the two are bit-identical.
        """
        key = genome.key()
        hit = self._fitness_cache.get(key)
        if hit is not None:
            return hit
        memory = self.memory_of(genome)
        summary = self.evaluator.summarize(
            genome.partition.subgraph_sets, memory
        )
        if self.alpha is None:
            value = partition_objective(summary, self.metric)
        else:
            value = co_opt_objective(
                summary, memory, self.alpha, self.metric
            )
        self._fitness_cache[key] = value
        return value

    def cost_batch(self, genomes: Sequence[Genome]) -> list[float]:
        """Objective values for a batch, preserving order and memoization.

        Memoized genomes are answered from the fitness cache; the batch's
        *unique* misses are batch-priced once and scored in first-seen
        order (see :func:`cached_map`), so a batch with repeats costs one
        evaluation per distinct genome and every value is bit-identical
        to :meth:`cost`.
        """
        return cached_map(
            self, genomes, self.cost, self._fitness_cache.get,
            store=lambda key, genome, value: value,
        )


def cached_map(
    problem: OptimizationProblem,
    genomes: Sequence[Genome],
    evaluate: Callable[[Genome], Any],
    lookup: Callable[[tuple], Any],
    store: Callable[[tuple, Genome, Any], Any],
) -> list[Any]:
    """Score a genome batch, serving repeats and known genomes from a cache.

    The caller provides the cache through two callables: ``lookup(key)``
    returns an earlier result or ``None``, and ``store(key, genome,
    value)`` records a fresh ``evaluate(genome)`` and returns the object
    to place in the output (so a caller can wrap the raw value, e.g.
    into an objective-space point). Only the *unique* misses are
    evaluated, in first-seen order, after one :meth:`OptimizationProblem.
    prime` of exactly those genomes, so evaluation counts match a serial
    in-order sweep. The GA fitness cache and the NSGA-II archive both
    batch through here.
    """
    results: list[Any] = []
    misses: dict[tuple, tuple[Genome, list[int]]] = {}
    for index, genome in enumerate(genomes):
        key = genome.key()
        hit = lookup(key)
        results.append(hit)
        if hit is None:
            misses.setdefault(key, (genome, []))[1].append(index)
    if misses:
        unique = [genome for genome, _ in misses.values()]
        problem.prime(unique)
        values = [evaluate(genome) for genome in unique]
        for (key, (genome, indices)), value in zip(misses.items(), values):
            final = store(key, genome, value)
            for index in indices:
                results[index] = final
    return results
