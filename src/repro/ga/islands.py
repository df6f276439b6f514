"""Island-model genetic search (extension of Sec 4.3's diversity argument).

The paper credits the GA's population diversity with escaping the local
minima that trap the greedy baseline. The island model pushes that lever
further: several sub-populations evolve independently (different seeds,
so different trajectories through the partition space) and periodically
exchange their best genomes. Migration spreads building blocks that one
island found to the others without collapsing global diversity — a
standard remedy when a single population converges prematurely on large
irregular graphs.

Implemented as a thin conductor over :class:`~repro.ga.engine.
GeneticEngine`: each epoch runs every island for ``epoch_generations``,
then the per-island elites migrate in a ring. Budgets are comparable to a
single-population run with the same total sample count, so results are
directly comparable in the experiment harness.

The whole search checkpoints at island-generation granularity: every
inner engine generation yields a composite :class:`IslandsCheckpoint`
(the per-island :class:`~repro.ga.engine.EngineCheckpoint` fleet plus
the conductor's migration RNG, epoch/island cursor, seed stocks, and
telemetry). ``resume_from`` continues bit-identically to a run that was
never interrupted, and ``max_samples`` caps the *global* evaluation
count exactly — the semantics mirror ``GeneticEngine``'s
``on_generation``/``resume``/``max_samples`` contract, which is what
lets ``repro suite --budget`` stop island cells at their allocation and
grow them later.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..errors import SearchError
from ..parallel.backend import EvaluationBackend, resolve_backend
from .engine import EngineCheckpoint, GAConfig, GAResult, GeneticEngine, RngState
from .genome import Genome
from .problem import OptimizationProblem


@dataclass
class IslandConfig:
    """Hyper-parameters of the island-model search.

    ``base`` configures each island's inner GA; its ``generations`` field
    is ignored in favor of ``epochs * epoch_generations``.
    """

    base: GAConfig = field(default_factory=GAConfig)
    num_islands: int = 4
    epochs: int = 5
    epoch_generations: int = 5
    migrants: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_islands < 2:
            raise SearchError("island model needs at least two islands")
        if self.epochs < 1 or self.epoch_generations < 1:
            raise SearchError("epochs and epoch generations must be positive")
        if self.migrants < 1:
            raise SearchError("need at least one migrant per epoch")
        if self.migrants >= self.base.population_size:
            raise SearchError("migrants must be fewer than the population")


@dataclass
class IslandsCheckpoint:
    """Composite search state captured after one island generation.

    ``epoch``/``island`` point at the island whose inner engine emitted
    the snapshot; ``islands[island]`` is that engine's *current*
    mid-epoch state, islands before the cursor hold their end-of-epoch
    state, islands after it their end-of-previous-epoch state (pristine
    for islands that have never run). ``populations`` is each island's
    seed stock for the epoch in progress (elites for islands already
    finished this epoch). Together with the conductor's migration RNG
    and the global best-cost history, this is everything
    :func:`island_search` needs to continue bit-identically.

    Checkpoints are in-memory objects; :mod:`repro.runs.checkpoint`
    serializes them to JSON (kind ``"islands"``) for the run registry.
    """

    epoch: int
    island: int
    islands: list[EngineCheckpoint]
    populations: list[list[Genome]]
    migration_rng_state: RngState
    history: list[tuple[int, float]]
    #: The conductor's global best. Stored explicitly rather than
    #: re-derived from the island fleet: on a cost tie between two
    #: islands, the winner is whichever crossed the mark first in run
    #: order — information the per-island states no longer carry.
    best_genome: Genome | None = None
    best_cost: float = float("inf")

    @property
    def evaluations(self) -> int:
        """Global evaluation count: the sum over the island fleet."""
        return sum(ck.evaluations for ck in self.islands)

    @property
    def generation(self) -> int:
        """The cursor island's inner-engine generation."""
        return self.islands[self.island].generation


#: Called after every scored island generation with the composite state.
IslandsHook = Callable[[IslandsCheckpoint], None]


def checkpoint_tick(
    checkpoint: IslandsCheckpoint, config: IslandConfig
) -> int:
    """Monotonic scalar position of a composite checkpoint.

    One island epoch spans ``epoch_generations + 1`` hook firings
    (generation 0 after initial scoring, then one per generation), so
    the tick orders every snapshot of a run totally — the suite keys
    its streamed history lines by it.
    """
    per_island = config.epoch_generations + 1
    islands_done = checkpoint.epoch * config.num_islands + checkpoint.island
    return islands_done * per_island + checkpoint.generation


def checkpoint_finished(
    checkpoint: IslandsCheckpoint, config: IslandConfig
) -> bool:
    """Whether the snapshot is the search's final state."""
    return (
        checkpoint.epoch == config.epochs - 1
        and checkpoint.island == config.num_islands - 1
        and checkpoint.generation == config.epoch_generations
    )


def _island_engines(
    problem: OptimizationProblem,
    config: IslandConfig,
    backend: EvaluationBackend,
) -> list[GeneticEngine]:
    engines = []
    for index in range(config.num_islands):
        island_cfg = replace(
            config.base,
            generations=config.epoch_generations,
            seed=config.seed * 1009 + index,
        )
        engines.append(GeneticEngine(problem, island_cfg, backend=backend))
    return engines


def island_search(
    problem: OptimizationProblem,
    config: IslandConfig | None = None,
    seeds: Sequence[Genome] = (),
    backend: EvaluationBackend | None = None,
    on_generation: IslandsHook | None = None,
    resume_from: IslandsCheckpoint | None = None,
    max_samples: int | None = None,
) -> GAResult:
    """Run the island-model GA and return the globally best genome.

    ``seeds`` warm-start island 0 (the flexible-initialization property
    carries over); migration then distributes anything useful they
    contain. The returned :class:`GAResult` aggregates evaluations and
    concatenates a global best-cost history across islands and epochs.

    All islands share one evaluation ``backend`` (built from
    ``config.base.workers`` when not supplied), so a process pool stays
    warm across every epoch of every island instead of restarting per
    engine run.

    ``on_generation`` receives an :class:`IslandsCheckpoint` after every
    scored island generation; ``resume_from`` continues a checkpointed
    run bit-identically to one that was never interrupted (same
    ``config`` required); ``max_samples`` caps the cumulative evaluation
    count across all islands exactly — a capped run stops mid-island
    with its checkpoint pointing at the spot, and a later resume with a
    higher cap continues the same trajectory.
    """
    config = config or IslandConfig()
    if max_samples is not None and max_samples < 1:
        raise SearchError("max_samples must be positive when set")
    owns_backend = backend is None
    if backend is None:
        backend = resolve_backend(config.base.workers)
    try:
        return _island_search(
            problem, config, seeds, backend,
            on_generation, resume_from, max_samples,
        )
    finally:
        if owns_backend:
            backend.close()


def _validate_resume(
    resume_from: IslandsCheckpoint, config: IslandConfig
) -> None:
    if len(resume_from.islands) != config.num_islands:
        raise SearchError(
            f"checkpoint holds {len(resume_from.islands)} islands, config "
            f"runs {config.num_islands}"
        )
    if resume_from.epoch >= config.epochs:
        raise SearchError(
            f"checkpoint is at epoch {resume_from.epoch}, config only "
            f"runs {config.epochs}"
        )


def _island_search(
    problem: OptimizationProblem,
    config: IslandConfig,
    seeds: Sequence[Genome],
    backend: EvaluationBackend,
    on_generation: IslandsHook | None,
    resume_from: IslandsCheckpoint | None,
    max_samples: int | None,
) -> GAResult:
    engines = _island_engines(problem, config, backend)
    rng = random.Random(config.seed)
    population_size = config.base.population_size

    if resume_from is not None:
        _validate_resume(resume_from, config)
        for engine, state in zip(engines, resume_from.islands):
            engine.restore(state)
        island_states = list(resume_from.islands)
        populations = [list(p) for p in resume_from.populations]
        rng.setstate(resume_from.migration_rng_state)
        history = list(resume_from.history)
        best = resume_from.best_genome
        best_cost = resume_from.best_cost
        start_epoch, start_island = resume_from.epoch, resume_from.island
    else:
        best = None
        best_cost = float("inf")
        # Pristine per-island snapshots: islands that have not run yet
        # are representable in a composite checkpoint from the start.
        island_states = [engine._snapshot([], []) for engine in engines]
        populations = [list(seeds)] + [
            [] for _ in range(config.num_islands - 1)
        ]
        history = []
        start_epoch, start_island = 0, 0

    def total_evaluations() -> int:
        return sum(engine._evaluations for engine in engines)

    def make_hook(epoch: int, island: int) -> Callable | None:
        if on_generation is None:
            return None

        def hook(state: EngineCheckpoint) -> None:
            island_states[island] = state
            on_generation(
                IslandsCheckpoint(
                    epoch=epoch,
                    island=island,
                    islands=list(island_states),
                    populations=[list(p) for p in populations],
                    migration_rng_state=rng.getstate(),
                    history=list(history),
                    best_genome=best,
                    best_cost=best_cost,
                )
            )

        return hook

    for epoch in range(start_epoch, config.epochs):
        resuming_epoch = resume_from is not None and epoch == start_epoch
        if epoch > 0 and not resuming_epoch:
            # A mid-epoch checkpoint is taken *after* the epoch's
            # migration shuffled the seed stocks, so a resumed epoch
            # must not migrate again.
            _migrate_ring(problem, populations, config.migrants, rng)
        first_island = start_island if resuming_epoch else 0
        for index in range(first_island, config.num_islands):
            engine = engines[index]
            if max_samples is not None:
                if total_evaluations() >= max_samples:
                    break
                # The other islands' counters are frozen while this one
                # runs, so this per-engine cumulative cap is exactly the
                # global remainder — and it is recomputable from any
                # mid-island checkpoint (the same frozen counters plus
                # the engine's own snapshot), which keeps resumed caps
                # identical to uninterrupted ones.
                engine.config.max_samples = max_samples - (
                    total_evaluations() - engine._evaluations
                )
            hook = make_hook(epoch, index)
            if resuming_epoch and index == start_island:
                result = engine.resume(
                    resume_from.islands[index], on_generation=hook
                )
            else:
                result = engine.run(
                    seeds=populations[index], on_generation=hook
                )
            populations[index] = _elites(problem, result, population_size)
            if engine._best is not None and engine._best_cost < best_cost:
                best = engine._best
                best_cost = engine._best_cost
                history.append((total_evaluations(), best_cost))
        if max_samples is not None and total_evaluations() >= max_samples:
            break

    if best is None:
        raise SearchError("island search produced no evaluated genome")
    return GAResult(
        best_genome=best,
        best_cost=best_cost,
        num_evaluations=total_evaluations(),
        history=history,
    )


def _elites(
    problem: OptimizationProblem, result: GAResult, count: int
) -> list[Genome]:
    """Seed stock for the next epoch: the island's best genome, repeated
    sampling handled by the engine's own initialization."""
    return [result.best_genome] * min(count, 4)


def _migrate_ring(
    problem: OptimizationProblem,
    populations: list[list[Genome]],
    migrants: int,
    rng: random.Random,
) -> None:
    """Send each island's best genomes to its ring neighbor (in place)."""
    # Batch-price all islands' genomes at once (cold fitness caches after
    # a resume otherwise reprice genome-by-genome); values are identical.
    problem.prime([g for population in populations for g in population])
    bests: list[list[Genome]] = []
    for population in populations:
        ranked = sorted(population, key=problem.cost)
        bests.append(ranked[:migrants])
    count = len(populations)
    for index in range(count):
        incoming = bests[(index - 1) % count]
        populations[index] = list(populations[index]) + list(incoming)
        rng.shuffle(populations[index])
