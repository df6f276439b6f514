"""Two-step exploration baselines: RS+GA and GS+GA (Sec 5.3).

The two-step scheme decouples capacity search from partition search:
sample memory-capacity candidates (randomly for RS, on a coarse
large-to-small grid for GS), run an independent partition-only GA under
each candidate, and keep the candidate with the best Formula 2 cost. The
paper evaluates 5,000 samples per capacity candidate; the per-candidate
budget is configurable here.

The whole scheme checkpoints at GA-generation granularity: every inner
engine generation yields a composite :class:`TwoStepCheckpoint` — the
candidate cursor, the running candidate's
:class:`~repro.ga.engine.EngineCheckpoint`, and the cross-candidate
telemetry folded so far — so an interrupted run resumes *mid-candidate*
instead of from candidate zero. ``max_evaluations`` caps the cumulative
evaluation count across every candidate exactly, mirroring
``GeneticEngine.max_samples``; a capped run stops mid-candidate and a
later resume with a higher cap continues the same trajectory, which is
what lets ``repro suite --budget`` stop ``rs``/``gs`` cells at their
allocation instead of running them cell-atomically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from ..config import MemoryConfig
from ..cost.evaluator import Evaluator
from ..cost.objective import Metric, co_opt_objective
from ..errors import SearchError
from ..ga.engine import EngineCheckpoint, GAConfig, GeneticEngine, SampleRecord
from ..ga.genome import Genome
from ..ga.problem import OptimizationProblem
from ..search_space import CapacitySpace
from .results import DSEResult


@dataclass
class TwoStepCheckpoint:
    """Composite two-step state captured after one inner GA generation.

    ``candidate`` is the cursor into the (deterministically derived)
    capacity-candidate list and ``engine`` that candidate's mid-run GA
    state. ``cumulative`` counts only the evaluations of *finished*
    candidates; the telemetry fields (history, samples, running best,
    best-so-far) likewise reflect finished candidates only — the
    running candidate folds in when it completes, exactly as in an
    uninterrupted run. ``candidates`` pins the capacity list so a
    resume against a drifted configuration fails loudly instead of
    silently searching a different space.

    Checkpoints are in-memory objects; :mod:`repro.runs.checkpoint`
    serializes them to JSON (kind ``"two_step"``, or the suite scheme
    names ``"rs"``/``"gs"``) for the run registry.
    """

    method: str
    candidate: int
    cumulative: int
    engine: EngineCheckpoint
    candidates: list[MemoryConfig]
    running_best: float = float("inf")
    history: list[tuple[int, float]] = field(default_factory=list)
    samples: list[SampleRecord] = field(default_factory=list)
    best_index: int | None = None
    best_genome: Genome | None = None
    best_cost: float = float("inf")

    @property
    def evaluations(self) -> int:
        """Total evaluations spent: finished candidates + the cursor's."""
        return self.cumulative + self.engine.evaluations

    @property
    def generation(self) -> int:
        """The cursor candidate's inner-engine generation."""
        return self.engine.generation


#: Called after every scored inner-GA generation with the composite.
TwoStepHook = Callable[[TwoStepCheckpoint], None]


def checkpoint_tick(
    checkpoint: TwoStepCheckpoint, ga_config: GAConfig
) -> int:
    """Monotonic scalar position of a composite checkpoint.

    One candidate spans ``generations + 1`` hook firings (generation 0
    after initial scoring, then one per generation), so the tick orders
    every snapshot of a run totally — the suite keys its streamed
    history lines by it.
    """
    return (
        checkpoint.candidate * (ga_config.generations + 1)
        + checkpoint.generation
    )


def checkpoint_finished(
    checkpoint: TwoStepCheckpoint, ga_config: GAConfig
) -> bool:
    """Whether the snapshot is the search's final state."""
    return (
        checkpoint.candidate == len(checkpoint.candidates) - 1
        and checkpoint.generation == ga_config.generations
    )


def _partition_problem(
    evaluator: Evaluator, memory: MemoryConfig, metric: Metric
) -> OptimizationProblem:
    return OptimizationProblem(
        evaluator=evaluator, metric=metric, alpha=None, fixed_memory=memory
    )


def _memory_key(memory: MemoryConfig) -> tuple:
    return (memory.mode, memory.total_bytes, memory.activation_capacity)


def _validate_resume(
    resume_from: TwoStepCheckpoint,
    candidates: list[MemoryConfig],
    method_name: str,
) -> None:
    if resume_from.method != method_name:
        raise SearchError(
            f"checkpoint belongs to {resume_from.method!r}, "
            f"resuming {method_name!r}"
        )
    expected = [_memory_key(m) for m in candidates]
    stored = [_memory_key(m) for m in resume_from.candidates]
    if expected != stored:
        raise SearchError(
            f"{method_name}: checkpointed capacity candidates do not match "
            "the configured space/seed — refusing to resume a different "
            "search"
        )
    if resume_from.candidate >= len(candidates):
        raise SearchError(
            f"checkpoint is at candidate {resume_from.candidate}, only "
            f"{len(candidates)} candidates configured"
        )


def _two_step(
    evaluator: Evaluator,
    candidates: list[MemoryConfig],
    metric: Metric,
    alpha: float,
    ga_config: GAConfig,
    method_name: str,
    on_checkpoint: TwoStepHook | None = None,
    resume_from: TwoStepCheckpoint | None = None,
    max_evaluations: int | None = None,
) -> DSEResult:
    if not candidates:
        raise SearchError(f"{method_name}: no capacity candidates to try")
    if max_evaluations is not None and max_evaluations < 1:
        raise SearchError("max_evaluations must be positive when set")
    if resume_from is not None:
        _validate_resume(resume_from, candidates, method_name)
        start = resume_from.candidate
        cumulative = resume_from.cumulative
        running_best = resume_from.running_best
        history = list(resume_from.history)
        samples = list(resume_from.samples)
        best_index = resume_from.best_index
        best_genome = resume_from.best_genome
        best_cost = resume_from.best_cost
    else:
        start = 0
        cumulative = 0
        running_best = float("inf")
        history = []
        samples = []
        best_index = None
        best_genome = None
        best_cost = float("inf")

    last_generation = -1
    engine: GeneticEngine | None = None
    for index in range(start, len(candidates)):
        if max_evaluations is not None and cumulative >= max_evaluations:
            break
        memory = candidates[index]
        overrides: dict = {"seed": ga_config.seed + index}
        if max_evaluations is not None:
            # Engine-local cap: the finished candidates' spend is frozen
            # while this one runs, so the remainder is exact — and it is
            # recomputable from any mid-candidate checkpoint (which
            # stores the same frozen ``cumulative``), keeping resumed
            # caps identical to uninterrupted ones.
            overrides["max_samples"] = max_evaluations - cumulative
        per_candidate = replace(ga_config, **overrides)
        problem = _partition_problem(evaluator, memory, metric)
        engine = GeneticEngine(problem, per_candidate)

        def hook(state: EngineCheckpoint, index: int = index) -> None:
            nonlocal last_generation
            last_generation = state.generation
            if on_checkpoint is not None:
                on_checkpoint(
                    TwoStepCheckpoint(
                        method=method_name,
                        candidate=index,
                        engine=state,
                        cumulative=cumulative,
                        candidates=list(candidates),
                        running_best=running_best,
                        history=list(history),
                        samples=list(samples),
                        best_index=best_index,
                        best_genome=best_genome,
                        best_cost=best_cost,
                    )
                )

        if resume_from is not None and index == start:
            last_generation = resume_from.engine.generation
            result = engine.resume(resume_from.engine, on_generation=hook)
        else:
            result = engine.run(on_generation=hook)
        if (
            max_evaluations is not None
            and last_generation < per_candidate.generations
        ):
            # The global cap landed mid-candidate: its engine checkpoint
            # stays the resume point; nothing folds yet (an uninterrupted
            # continuation folds this candidate only when it completes).
            cumulative += result.num_evaluations
            break

        _, partition_cost = problem.evaluate(result.best_genome)
        total = co_opt_objective(partition_cost, memory, alpha, metric)
        for offset, value in result.history:
            candidate_total = memory.total_bytes + alpha * value
            if candidate_total < running_best:
                running_best = candidate_total
                history.append((cumulative + offset, running_best))
        for record in result.samples:
            samples.append(
                SampleRecord(
                    index=cumulative + record.index,
                    cost=memory.total_bytes + alpha * record.cost,
                    total_buffer_bytes=memory.total_bytes,
                    generation=record.generation,
                )
            )
        cumulative += result.num_evaluations
        if best_genome is None or total < best_cost:
            best_index = index
            best_genome = result.best_genome.with_memory(memory)
            best_cost = total

    if best_genome is None:
        # Capped inside the very first candidate: report the partial
        # GA's best (provisional — the run is resumable from its
        # checkpoint and the fold happens when the candidate completes).
        memory = candidates[start]
        partial = (
            engine._best if engine is not None
            else resume_from.engine.best_genome if resume_from is not None
            else None
        )
        if partial is None:
            raise SearchError(
                f"{method_name}: no evaluations performed under the cap"
            )
        problem = _partition_problem(evaluator, memory, metric)
        _, partition_cost = problem.evaluate(partial)
        best_genome = partial.with_memory(memory)
        best_cost = co_opt_objective(partition_cost, memory, alpha, metric)
        best_index = start
    else:
        problem = _partition_problem(
            evaluator, candidates[best_index], metric
        )
        _, partition_cost = problem.evaluate(best_genome)
    return DSEResult(
        method=method_name,
        best_genome=best_genome,
        best_cost=best_cost,
        partition_cost=partition_cost,
        num_evaluations=cumulative,
        history=history,
        samples=samples,
    )


def random_candidates(
    space: CapacitySpace, num_candidates: int, seed: int
) -> list[MemoryConfig]:
    """The RS capacity candidates for ``seed`` (deterministic)."""
    rng = random.Random(seed)
    seen: set[tuple] = set()
    candidates: list[MemoryConfig] = []
    while len(candidates) < num_candidates:
        memory = space.sample(rng)
        key = (memory.total_bytes, memory.activation_capacity)
        if key in seen and len(seen) < num_candidates * 10:
            continue
        seen.add(key)
        candidates.append(memory)
    return candidates


def grid_candidates(
    space: CapacitySpace, stride: int, max_candidates: int
) -> list[MemoryConfig]:
    """The GS capacity candidates (coarse large-to-small grid)."""
    return space.grid(stride=stride, descending=True)[:max_candidates]


def random_search_ga(
    evaluator: Evaluator,
    space: CapacitySpace,
    num_candidates: int = 10,
    metric: Metric = Metric.ENERGY,
    alpha: float = 0.002,
    ga_config: GAConfig | None = None,
    seed: int = 0,
    on_checkpoint: TwoStepHook | None = None,
    resume_from: TwoStepCheckpoint | None = None,
    max_evaluations: int | None = None,
) -> DSEResult:
    """RS+GA: random capacity candidates, independent partition GAs."""
    return _two_step(
        evaluator, random_candidates(space, num_candidates, seed), metric,
        alpha, ga_config or GAConfig(), "RS+GA",
        on_checkpoint=on_checkpoint, resume_from=resume_from,
        max_evaluations=max_evaluations,
    )


def grid_search_ga(
    evaluator: Evaluator,
    space: CapacitySpace,
    stride: int = 8,
    max_candidates: int = 12,
    metric: Metric = Metric.ENERGY,
    alpha: float = 0.002,
    ga_config: GAConfig | None = None,
    on_checkpoint: TwoStepHook | None = None,
    resume_from: TwoStepCheckpoint | None = None,
    max_evaluations: int | None = None,
) -> DSEResult:
    """GS+GA: coarse large-to-small capacity grid, one GA per point."""
    return _two_step(
        evaluator, grid_candidates(space, stride, max_candidates), metric,
        alpha, ga_config or GAConfig(), "GS+GA",
        on_checkpoint=on_checkpoint, resume_from=resume_from,
        max_evaluations=max_evaluations,
    )
