"""NSGA-II multi-objective co-exploration (extension beyond the paper).

Formula 2 scalarizes the capacity/communication trade-off with a single
``alpha``; the paper's Fig 14 re-runs the whole search per alpha to sweep
the trade-off. NSGA-II (Deb et al., 2002) explores the two objectives —
total buffer capacity and the mapping metric (energy or EMA) — directly,
returning the entire non-dominated frontier from *one* run. Every
Formula 2 optimum for any alpha lies on that frontier, so the sweep
becomes a frontier read-off instead of a family of searches.

The genome encoding, crossover, mutation, and in-situ capacity repair are
shared with the scalarized Cocco GA; only selection changes, to the
classic fast-non-dominated-sort plus crowding-distance scheme.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..cost.objective import Metric, partition_objective
from ..cost.evaluator import Evaluator
from ..errors import SearchError
from ..ga.crossover import crossover
from ..ga.engine import RngState
from ..ga.genome import Genome
from ..ga.mutation import merge_subgraph, modify_node, mutate_dse, split_subgraph
from ..ga.population import initialize_population
from ..ga.problem import OptimizationProblem, cached_map
from ..search_space import CapacitySpace
from .pareto import ParetoPoint


@dataclass(frozen=True)
class MultiObjectivePoint:
    """One evaluated genome in (capacity, metric) objective space."""

    genome: Genome
    capacity_bytes: int
    metric_cost: float

    @property
    def objectives(self) -> tuple[float, float]:
        return (float(self.capacity_bytes), self.metric_cost)

    def dominates(self, other: "MultiObjectivePoint") -> bool:
        """Pareto dominance: no worse in both, strictly better in one."""
        a, b = self.objectives, other.objectives
        return a[0] <= b[0] and a[1] <= b[1] and a != b

    def formula2(self, alpha: float) -> float:
        """The scalarized Formula 2 value at ``alpha``."""
        return self.capacity_bytes + alpha * self.metric_cost


@dataclass
class NSGAConfig:
    """Hyper-parameters of the NSGA-II search."""

    population_size: int = 60
    generations: int = 30
    crossover_rate: float = 0.6
    mutation_rate: float = 0.9
    dse_mutation_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise SearchError("NSGA-II needs a population of at least four")
        if self.generations < 1:
            raise SearchError("need at least one generation")


@dataclass
class NSGACheckpoint:
    """Complete NSGA-II state after one generation.

    Carries the current population (``points``), the deduplicated
    evaluation archive (needed so resumed runs count cache hits exactly
    like uninterrupted ones), the RNG state, the hypervolume reference
    corner, and the telemetry. ``generation`` is 0 right after the
    initial population is evaluated. Serialized to JSON by
    :mod:`repro.runs.checkpoint`, which stores ``points`` as indices
    into ``archive``; ``archive`` comes first so it decodes first.
    """

    generation: int
    rng_state: RngState
    evaluations: int
    reference: tuple[float, float]
    history: list[tuple[int, float]]
    archive: list["MultiObjectivePoint"]
    points: list["MultiObjectivePoint"]


#: Called after every evaluated generation with the search's checkpoint.
NSGAGenerationHook = Callable[[NSGACheckpoint], None]


@dataclass
class NSGAResult:
    """Outcome of one NSGA-II run."""

    front: list[MultiObjectivePoint]
    num_evaluations: int
    generations: int
    history: list[tuple[int, float]] = field(default_factory=list)

    def select_by_alpha(self, alpha: float) -> MultiObjectivePoint:
        """The frontier point Formula 2 would pick at ``alpha``."""
        if not self.front:
            raise SearchError("empty frontier")
        return min(self.front, key=lambda p: p.formula2(alpha))

    def as_pareto_points(self) -> list[ParetoPoint]:
        """Frontier in the :mod:`repro.dse.pareto` representation."""
        return [
            ParetoPoint(p.capacity_bytes, p.metric_cost) for p in self.front
        ]


# ---------------------------------------------------------------------------
def fast_non_dominated_sort(
    points: Sequence[MultiObjectivePoint],
) -> list[list[int]]:
    """Indices grouped into fronts: fronts[0] is the non-dominated set."""
    dominated_by: list[list[int]] = [[] for _ in points]
    domination_count = [0] * len(points)
    fronts: list[list[int]] = [[]]
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if i == j:
                continue
            if p.dominates(q):
                dominated_by[i].append(j)
            elif q.dominates(p):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        nxt: list[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current += 1
        fronts.append(nxt)
    fronts.pop()  # the loop always appends one empty trailing front
    return fronts


def crowding_distance(
    points: Sequence[MultiObjectivePoint], indices: Sequence[int]
) -> dict[int, float]:
    """Crowding distance of each index within one front."""
    distance = {i: 0.0 for i in indices}
    if len(indices) <= 2:
        return {i: float("inf") for i in indices}
    for axis in range(2):
        ordered = sorted(indices, key=lambda i: points[i].objectives[axis])
        lo = points[ordered[0]].objectives[axis]
        hi = points[ordered[-1]].objectives[axis]
        distance[ordered[0]] = float("inf")
        distance[ordered[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for rank in range(1, len(ordered) - 1):
            below = points[ordered[rank - 1]].objectives[axis]
            above = points[ordered[rank + 1]].objectives[axis]
            distance[ordered[rank]] += (above - below) / span
    return distance


def hypervolume(
    front: Sequence[MultiObjectivePoint],
    reference: tuple[float, float],
) -> float:
    """2D hypervolume dominated by ``front`` up to ``reference``.

    The standard quality indicator for a two-objective frontier: the area
    between the front and a reference (worst-case) corner. Larger is
    better; points beyond the reference contribute nothing.
    """
    ordered = sorted(
        (p for p in front
         if p.objectives[0] < reference[0] and p.objectives[1] < reference[1]),
        key=lambda p: p.objectives[0],
    )
    area = 0.0
    prev_y = reference[1]
    for point in ordered:
        x, y = point.objectives
        if y < prev_y:
            area += (reference[0] - x) * (prev_y - y)
            prev_y = y
    return area


# ---------------------------------------------------------------------------
class _Archive:
    """Deduplicated evaluation cache keyed by genome identity."""

    def __init__(self, problem: OptimizationProblem, metric: Metric):
        self.problem = problem
        self.metric = metric
        self.evaluations = 0
        self._cache: dict[tuple, MultiObjectivePoint] = {}

    def metric_cost(self, genome: Genome) -> float:
        """The metric axis of one genome, priced under its own memory.

        The capacity axis is a pure attribute of the genome's memory
        configuration, so only this one is evaluated.
        """
        cost = self.problem.evaluator.summarize(
            genome.partition.subgraph_sets, genome.memory
        )
        if not cost.feasible:
            return float("inf")
        return partition_objective(cost, self.metric)

    def evaluate_batch(
        self, genomes: Sequence[Genome]
    ) -> list[MultiObjectivePoint]:
        """Batch evaluation preserving order, dedup, and evaluation count.

        Only the *unique* cache misses are batch-priced and scored, so
        ``evaluations`` counts exactly what a genome-by-genome sweep in
        order would have computed.
        """

        def store(
            key: tuple, genome: Genome, metric_cost: float
        ) -> MultiObjectivePoint:
            self.evaluations += 1
            point = MultiObjectivePoint(
                genome=genome,
                capacity_bytes=genome.memory.total_bytes,
                metric_cost=metric_cost,
            )
            self._cache[key] = point
            return point

        return cached_map(
            self.problem, genomes, self.metric_cost, self._cache.get, store
        )

    def export(self) -> list[MultiObjectivePoint]:
        """Every archived point, in insertion (evaluation) order."""
        return list(self._cache.values())

    def restore(
        self, points: Sequence[MultiObjectivePoint], evaluations: int
    ) -> None:
        """Reinstall a checkpointed archive (keys rebuilt from genomes)."""
        self._cache = {point.genome.key(): point for point in points}
        self.evaluations = evaluations


def _crowded_pick(
    rng: random.Random,
    points: list[MultiObjectivePoint],
    rank: dict[int, int],
    crowd: dict[int, float],
) -> MultiObjectivePoint:
    """Binary tournament under the crowded-comparison operator."""
    a, b = rng.randrange(len(points)), rng.randrange(len(points))
    if (rank[a], -crowd[a]) <= (rank[b], -crowd[b]):
        return points[a]
    return points[b]


def nsga2_co_optimize(
    evaluator: Evaluator,
    space: CapacitySpace,
    metric: Metric = Metric.ENERGY,
    config: NSGAConfig | None = None,
    on_generation: NSGAGenerationHook | None = None,
    resume_from: NSGACheckpoint | None = None,
) -> NSGAResult:
    """Run NSGA-II over (buffer capacity, metric cost).

    Returns the final non-dominated frontier, deduplicated by objective
    values and sorted by capacity. The ``history`` records hypervolume
    per generation against the fixed corner of the initial population,
    so convergence is observable.

    Each generation's offspring are bred first and evaluated as one
    batch; selection never interleaves with evaluation.

    ``on_generation`` receives an :class:`NSGACheckpoint` after the
    initial evaluation (generation 0) and after every generation;
    ``resume_from`` continues a checkpointed run bit-identically to one
    that was never interrupted (same ``config`` required).
    """
    config = config or NSGAConfig()
    rng = random.Random(config.seed)
    # alpha is irrelevant here (selection is Pareto-based), but the shared
    # problem object provides sampling and in-situ capacity repair.
    problem = OptimizationProblem(
        evaluator=evaluator,
        metric=metric,
        alpha=1.0,
        space=space,
    )
    archive = _Archive(problem, metric)

    def snapshot(generation: int) -> NSGACheckpoint:
        return NSGACheckpoint(
            generation=generation,
            rng_state=rng.getstate(),
            evaluations=archive.evaluations,
            reference=reference,
            history=list(history),
            points=list(points),
            archive=archive.export(),
        )

    if resume_from is not None:
        if resume_from.generation > config.generations:
            raise SearchError(
                f"checkpoint is at generation {resume_from.generation}, "
                f"config only runs {config.generations}"
            )
        rng.setstate(resume_from.rng_state)
        archive.restore(resume_from.archive, resume_from.evaluations)
        points = list(resume_from.points)
        reference = resume_from.reference
        history = list(resume_from.history)
        start_generation = resume_from.generation + 1
    else:
        genomes = initialize_population(problem, config.population_size, rng)
        points = archive.evaluate_batch(genomes)
        feasible = [p for p in points if p.metric_cost != float("inf")]
        if feasible:
            reference = (
                max(p.objectives[0] for p in feasible) * 1.1,
                max(p.objectives[1] for p in feasible) * 1.1,
            )
        else:
            reference = (float("inf"), float("inf"))
        history = []
        start_generation = 1
        if on_generation is not None:
            on_generation(snapshot(0))

    for generation in range(start_generation, config.generations + 1):
        fronts = fast_non_dominated_sort(points)
        rank: dict[int, int] = {}
        crowd: dict[int, float] = {}
        for level, front in enumerate(fronts):
            distances = crowding_distance(points, front)
            for index in front:
                rank[index] = level
                crowd[index] = distances[index]

        # Breed the full generation first (evaluation never touches the
        # RNG), then evaluate it as one batch so its unseen subgraphs are
        # priced together.
        children: list[Genome] = []
        while len(children) < config.population_size:
            parent_a = _crowded_pick(rng, points, rank, crowd)
            if rng.random() < config.crossover_rate:
                parent_b = _crowded_pick(rng, points, rank, crowd)
                child = crossover(parent_a.genome, parent_b.genome, rng, space)
            else:
                child = parent_a.genome
            if rng.random() < config.mutation_rate:
                op = rng.choice((modify_node, split_subgraph, merge_subgraph))
                child = op(child, rng)
            if rng.random() < config.dse_mutation_rate:
                child = mutate_dse(child, rng, space)
            children.append(problem.repair(child))
        offspring = archive.evaluate_batch(children)

        combined = points + offspring
        fronts = fast_non_dominated_sort(combined)
        survivors: list[MultiObjectivePoint] = []
        for front in fronts:
            if len(survivors) + len(front) <= config.population_size:
                survivors.extend(combined[i] for i in front)
                continue
            distances = crowding_distance(combined, front)
            ordered = sorted(front, key=lambda i: -distances[i])
            remaining = config.population_size - len(survivors)
            survivors.extend(combined[i] for i in ordered[:remaining])
            break
        points = survivors
        if reference[0] != float("inf"):
            first = [combined[i] for i in fronts[0]]
            history.append((generation, hypervolume(first, reference)))
        if on_generation is not None:
            on_generation(snapshot(generation))

    final_front_indices = fast_non_dominated_sort(points)[0]
    seen: set[tuple[float, float]] = set()
    frontier: list[MultiObjectivePoint] = []
    for index in sorted(
        final_front_indices, key=lambda i: points[i].objectives
    ):
        objectives = points[index].objectives
        if objectives in seen or objectives[1] == float("inf"):
            continue
        seen.add(objectives)
        frontier.append(points[index])
    return NSGAResult(
        front=frontier,
        num_evaluations=archive.evaluations,
        generations=config.generations,
        history=history,
    )
