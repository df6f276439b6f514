"""The genetic engine: generations of crossover, mutation, selection.

Implements the five-stage Cocco loop of Sec 4.4 — initialization,
crossover, mutation, evaluation (with in-situ capacity repair), and
tournament selection — while recording the sample-efficiency telemetry
the paper plots in Fig 12 (best-cost-vs-samples) and Fig 13 (per-sample
scatter of capacity against metric cost).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import SearchError
from ..parallel.backend import EvaluationBackend, resolve_backend
from .crossover import crossover
from .genome import Genome
from .mutation import merge_subgraph, modify_node, mutate_dse, split_subgraph
from .population import initialize_population
from .problem import OptimizationProblem
from .selection import tournament_select

#: ``random.Random.getstate()``: (version, internal state, gauss_next).
RngState = tuple[int, tuple[int, ...], float | None]


@dataclass(frozen=True)
class SampleRecord:
    """One evaluated genome, for the Fig 13 scatter."""

    index: int
    cost: float
    total_buffer_bytes: int
    generation: int


@dataclass
class GAConfig:
    """Hyper-parameters of the genetic search."""

    population_size: int = 100
    generations: int = 50
    crossover_rate: float = 0.6
    mutation_rate: float = 0.9
    dse_mutation_rate: float = 0.3
    tournament_size: int = 3
    elitism: int = 2
    seed: int = 0
    max_samples: int | None = None
    record_samples: bool = False
    #: Evaluation fan-out: 0/1 evaluates serially, N>1 uses a
    #: :class:`~repro.parallel.backend.ProcessPoolBackend` with N workers.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise SearchError("population must hold at least two genomes")
        if self.generations < 1:
            raise SearchError("need at least one generation")
        if self.max_samples is not None and self.max_samples < 1:
            raise SearchError("max_samples must be positive when set")
        if self.workers < 0:
            raise SearchError("workers must be non-negative")


@dataclass
class GAResult:
    """Outcome of one search run (shared by GA, SA, and two-step)."""

    best_genome: Genome
    best_cost: float
    num_evaluations: int
    history: list[tuple[int, float]] = field(default_factory=list)
    samples: list[SampleRecord] = field(default_factory=list)


@dataclass
class EngineCheckpoint:
    """Complete search state after one generation.

    Everything :meth:`GeneticEngine.resume` needs to continue a run
    bit-identically to one that was never interrupted: the population
    and its costs, the RNG state (so the breeding stream picks up
    mid-sequence), and every piece of telemetry (evaluation counter,
    best-so-far, history, sample records). ``generation`` is 0 for the
    snapshot taken right after initial-population scoring.

    Checkpoints are in-memory objects; :mod:`repro.runs.checkpoint`
    serializes them to JSON for the run registry.
    """

    generation: int
    rng_state: RngState
    evaluations: int
    best_genome: Genome | None
    best_cost: float
    history: list[tuple[int, float]]
    samples: list[SampleRecord]
    population: list[Genome]
    costs: list[float]


#: Called after every scored generation with the engine's checkpoint.
GenerationHook = Callable[[EngineCheckpoint], None]


class GeneticEngine:
    """Runs the Cocco GA on one :class:`OptimizationProblem`.

    Population evaluation goes through an :class:`~repro.parallel.backend.
    EvaluationBackend`: pass one explicitly (it is shared, and the caller
    owns its lifecycle — the island model and the two-step schemes do this
    to keep one worker pool warm across many engine runs), or leave it
    ``None`` and the engine builds one from ``config.workers`` and closes
    it when :meth:`run` returns. Genome evaluation is pure, so every
    backend produces bit-identical results for a fixed seed.
    """

    def __init__(
        self,
        problem: OptimizationProblem,
        config: GAConfig | None = None,
        backend: EvaluationBackend | None = None,
    ):
        self.problem = problem
        self.config = config or GAConfig()
        self._external_backend = backend
        self._rng = random.Random(self.config.seed)
        self._evaluations = 0
        self._best: Genome | None = None
        self._best_cost = float("inf")
        self._history: list[tuple[int, float]] = []
        self._samples: list[SampleRecord] = []
        self._generation = 0

    # ------------------------------------------------------------------
    def _score_batch(
        self, genomes: list[Genome], backend: EvaluationBackend
    ) -> list[float]:
        """Evaluate a batch, then book-keep each genome in input order.

        The costs land first (serially or fanned out — results are
        identical either way), then telemetry replays them in order, so
        ``num_evaluations``, the Fig 12 history, and the Fig 13 sample
        records match serial evaluation exactly.
        """
        costs = self.problem.cost_batch(genomes, backend)
        for genome, cost in zip(genomes, costs):
            self._evaluations += 1
            if cost < self._best_cost:
                self._best_cost = cost
                self._best = genome
                self._history.append((self._evaluations, cost))
            if self.config.record_samples:
                self._samples.append(
                    SampleRecord(
                        index=self._evaluations,
                        cost=cost,
                        total_buffer_bytes=self.problem.memory_of(genome).total_bytes,
                        generation=self._generation,
                    )
                )
        return costs

    def _budget_left(self) -> bool:
        limit = self.config.max_samples
        return limit is None or self._evaluations < limit

    def _fit_to_budget(self, genomes: list[Genome]) -> list[Genome]:
        """Truncate a batch so scoring it cannot overshoot ``max_samples``."""
        limit = self.config.max_samples
        if limit is None:
            return genomes
        return genomes[: max(0, limit - self._evaluations)]

    def _make_child(self, population: list[Genome], costs: list[float]) -> Genome:
        cfg = self.config
        rng = self._rng
        if rng.random() < cfg.crossover_rate and len(population) >= 2:
            dad, mom = tournament_select(
                population, costs, 2, rng, cfg.tournament_size
            )
            child = crossover(dad, mom, rng, self.problem.space)
        else:
            (child,) = tournament_select(
                population, costs, 1, rng, cfg.tournament_size
            )
        if rng.random() < cfg.mutation_rate:
            op = rng.choice((modify_node, split_subgraph, merge_subgraph))
            child = op(child, rng)
        if self.problem.space is not None and rng.random() < cfg.dse_mutation_rate:
            child = mutate_dse(child, rng, self.problem.space)
        return self.problem.repair(child)

    def _snapshot(
        self, population: list[Genome], costs: list[float]
    ) -> EngineCheckpoint:
        """Capture the full search state (defensive copies throughout)."""
        return EngineCheckpoint(
            generation=self._generation,
            rng_state=self._rng.getstate(),
            evaluations=self._evaluations,
            best_genome=self._best,
            best_cost=self._best_cost,
            history=list(self._history),
            samples=list(self._samples),
            population=list(population),
            costs=list(costs),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        seeds: Sequence[Genome] = (),
        on_generation: GenerationHook | None = None,
    ) -> GAResult:
        """Execute the configured number of generations and return the best.

        ``on_generation`` (when given) receives an
        :class:`EngineCheckpoint` after the initial population is scored
        (generation 0) and after every subsequent generation, enabling
        streamed telemetry and durable generation-level checkpoints.
        """
        cfg = self.config
        backend = self._external_backend
        owns_backend = backend is None
        if backend is None:
            backend = resolve_backend(cfg.workers)
        try:
            return self._run(backend, seeds, on_generation)
        finally:
            if owns_backend:
                backend.close()

    def restore(self, checkpoint: EngineCheckpoint) -> None:
        """Reinstall a snapshotted engine state without running anything.

        The island conductor uses this to rebuild a fleet of engines
        from a composite checkpoint: idle islands get their state back
        via ``restore`` and continue through ordinary :meth:`run` calls
        (their RNG stream and telemetry pick up mid-sequence), while the
        island that was mid-run goes through :meth:`resume`.
        """
        self._rng.setstate(checkpoint.rng_state)
        self._evaluations = checkpoint.evaluations
        self._best = checkpoint.best_genome
        self._best_cost = checkpoint.best_cost
        self._history = list(checkpoint.history)
        self._samples = list(checkpoint.samples)
        self._generation = checkpoint.generation

    def resume(
        self,
        checkpoint: EngineCheckpoint,
        on_generation: GenerationHook | None = None,
    ) -> GAResult:
        """Continue a checkpointed run, bit-identically to one never paused.

        The engine must be freshly constructed on an equivalent problem
        and the *same* :class:`GAConfig` the checkpointed run used
        (evaluation is pure, so the evaluator's caches may be cold — the
        recomputed costs are identical). The RNG stream, the evaluation
        counter, and all telemetry pick up exactly where the checkpoint
        left them.
        """
        if checkpoint.generation > self.config.generations:
            raise SearchError(
                f"checkpoint is at generation {checkpoint.generation}, config "
                f"only runs {self.config.generations}"
            )
        self.restore(checkpoint)
        backend = self._external_backend
        owns_backend = backend is None
        if backend is None:
            backend = resolve_backend(self.config.workers)
        try:
            return self._loop(
                backend,
                list(checkpoint.population),
                list(checkpoint.costs),
                checkpoint.generation + 1,
                on_generation,
            )
        finally:
            if owns_backend:
                backend.close()

    def _run(
        self,
        backend: EvaluationBackend,
        seeds: Sequence[Genome],
        on_generation: GenerationHook | None = None,
    ) -> GAResult:
        cfg = self.config
        # A reused engine (the island model runs one engine per epoch)
        # starts each run at generation 0 again; without the reset its
        # initial snapshot would claim the previous run's final
        # generation and a resume would skip the whole new run.
        self._generation = 0
        population = initialize_population(
            self.problem, cfg.population_size, self._rng, seeds
        )
        population = self._fit_to_budget(population)
        costs = self._score_batch(population, backend)
        if on_generation is not None:
            on_generation(self._snapshot(population, costs))
        return self._loop(backend, population, costs, 1, on_generation)

    def _loop(
        self,
        backend: EvaluationBackend,
        population: list[Genome],
        costs: list[float],
        start_generation: int,
        on_generation: GenerationHook | None = None,
    ) -> GAResult:
        cfg = self.config
        for generation in range(start_generation, cfg.generations + 1):
            self._generation = generation
            if not self._budget_left():
                break
            # Children are bred for the full population before any of them
            # is evaluated (the serial loop behaved the same way: scoring
            # happened after breeding, so the RNG stream is unchanged).
            # Truncating *before* scoring keeps num_evaluations exactly at
            # max_samples instead of overshooting by up to a generation.
            offspring = [
                self._make_child(population, costs)
                for _ in range(cfg.population_size)
            ]
            offspring = self._fit_to_budget(offspring)
            offspring_costs = self._score_batch(offspring, backend)

            pool = population + offspring
            pool_costs = costs + offspring_costs
            elite_indices = sorted(
                range(len(pool)), key=lambda i: pool_costs[i]
            )[: cfg.elitism]
            survivors = [pool[i] for i in elite_indices]
            survivor_costs = [pool_costs[i] for i in elite_indices]
            selected = tournament_select(
                pool,
                pool_costs,
                cfg.population_size - len(survivors),
                self._rng,
                cfg.tournament_size,
            )
            population = survivors + selected
            costs = survivor_costs + [self.problem.cost(g) for g in selected]
            if on_generation is not None:
                on_generation(self._snapshot(population, costs))

        best = self._best
        if best is None:
            # No genome fit the memory (every cost is inf): report the final
            # population's first genome at inf so callers such as the
            # two-step schemes fold this run like any other.
            best = population[0]
        return GAResult(
            best_genome=best,
            best_cost=self._best_cost,
            num_evaluations=self._evaluations,
            history=self._history,
            samples=self._samples,
        )
