"""Simulated-annealing baseline (Sec 4.2.4).

SA shares Cocco's mutation operators and cost surface: each step perturbs
the current genome with a random customized mutation (plus mutation-DSE
when co-exploring), accepts improvements always and regressions with the
Metropolis probability ``exp(-delta / T)``, and cools geometrically. The
temperature is auto-scaled to a fraction of the initial cost so one
config works across metrics with very different magnitudes.

The chain state is tiny — (current genome, temperature, step, RNG
state) plus the best-so-far telemetry — so :class:`SACheckpoint`
snapshots the whole search after any step. Resuming from a checkpoint
is bit-identical to a run that was never interrupted: the temperature
is stored post-multiply (recomputing ``t_start * cooling**step`` would
drift in the last float bits), the cooling factor is carried (it
derives from the *initial* cost, which a resume never re-evaluates),
and the RNG stream picks up mid-sequence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..errors import SearchError
from .engine import GAResult, RngState, SampleRecord
from .genome import Genome
from .mutation import merge_subgraph, modify_node, mutate_dse, split_subgraph
from .problem import OptimizationProblem


@dataclass
class SAConfig:
    """Hyper-parameters of the simulated-annealing search."""

    steps: int = 20_000
    initial_temp_fraction: float = 0.05
    final_temp_fraction: float = 1e-5
    dse_mutation_rate: float = 0.3
    seed: int = 0
    record_samples: bool = False
    #: Steps between ``on_step`` checkpoint emissions. The final state is
    #: always emitted regardless, so a resume recomputes at most
    #: ``checkpoint_interval - 1`` steps — still bit-identically.
    checkpoint_interval: int = 25

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise SearchError("SA needs at least one step")
        if not 0 < self.final_temp_fraction <= self.initial_temp_fraction:
            raise SearchError("temperature fractions must satisfy 0 < final <= initial")
        if self.checkpoint_interval < 1:
            raise SearchError("checkpoint_interval must be positive")


@dataclass
class SACheckpoint:
    """Complete chain state after ``step`` completed annealing steps.

    ``step`` is 0 for the snapshot taken right after the initial genome
    is evaluated. Checkpoints are in-memory objects;
    :mod:`repro.runs.checkpoint` serializes them to JSON for the run
    registry.
    """

    step: int
    temperature: float
    cooling: float
    rng_state: RngState
    evaluations: int
    current_genome: Genome
    current_cost: float
    best_genome: Genome
    best_cost: float
    history: list[tuple[int, float]] = field(default_factory=list)
    samples: list[SampleRecord] = field(default_factory=list)


def simulated_annealing(
    problem: OptimizationProblem,
    config: SAConfig | None = None,
    initial: Genome | None = None,
    on_step=None,
    resume_from: SACheckpoint | None = None,
    max_evaluations: int | None = None,
) -> GAResult:
    """Run SA and return the result in the shared :class:`GAResult` shape.

    The Metropolis chain is inherently sequential — each step's candidate
    depends on the previous accept — so it scores one genome per step,
    in process.

    ``on_step`` (when given) receives an :class:`SACheckpoint` after the
    initial evaluation (step 0), every ``config.checkpoint_interval``
    steps, and at whatever step the run stops on. ``resume_from``
    continues a checkpointed chain bit-identically to one that was never
    interrupted (same ``config`` required). ``max_evaluations`` caps the
    chain's total evaluation count (including the initial one and any
    already spent before a resume): the run stops once the cap is
    reached, leaving ``checkpoint.step < config.steps`` — a later resume
    with a higher cap continues the same chain, which is how the
    campaign budget scheduler grows a cell's sample budget.
    """
    config = config or SAConfig()
    if max_evaluations is not None and max_evaluations < 1:
        raise SearchError("max_evaluations must be positive when set")
    rng = random.Random(config.seed)

    if resume_from is not None:
        if resume_from.step > config.steps:
            raise SearchError(
                f"checkpoint is at step {resume_from.step}, config only "
                f"runs {config.steps}"
            )
        rng.setstate(resume_from.rng_state)
        current, current_cost = resume_from.current_genome, resume_from.current_cost
        best, best_cost = resume_from.best_genome, resume_from.best_cost
        evaluations = resume_from.evaluations
        history = list(resume_from.history)
        samples = list(resume_from.samples)
        temperature, cooling = resume_from.temperature, resume_from.cooling
        start_step = resume_from.step
    else:
        current = initial if initial is not None else problem.random_genome(rng)
        current = problem.repair(current)
        current_cost = problem.cost(current)
        best, best_cost = current, current_cost
        evaluations = 1
        history = [(1, best_cost)]
        samples = []
        scale = abs(current_cost) if current_cost not in (0.0, float("inf")) else 1.0
        t_start = config.initial_temp_fraction * scale
        t_end = config.final_temp_fraction * scale
        cooling = (t_end / t_start) ** (1.0 / max(1, config.steps - 1))
        temperature = t_start
        start_step = 0

    def snapshot(step: int) -> SACheckpoint:
        return SACheckpoint(
            step=step,
            temperature=temperature,
            cooling=cooling,
            rng_state=rng.getstate(),
            evaluations=evaluations,
            current_genome=current,
            current_cost=current_cost,
            best_genome=best,
            best_cost=best_cost,
            history=list(history),
            samples=list(samples),
        )

    emitted_at = start_step if resume_from is not None else -1
    if on_step is not None and resume_from is None:
        on_step(snapshot(0))
        emitted_at = 0

    step = start_step
    for step_index in range(start_step, config.steps):
        if max_evaluations is not None and evaluations >= max_evaluations:
            break
        op = rng.choice((modify_node, split_subgraph, merge_subgraph))
        candidate = op(current, rng)
        if problem.space is not None and rng.random() < config.dse_mutation_rate:
            candidate = mutate_dse(candidate, rng, problem.space)
        candidate = problem.repair(candidate)
        candidate_cost = problem.cost(candidate)
        evaluations += 1
        if config.record_samples:
            samples.append(
                SampleRecord(
                    index=evaluations,
                    cost=candidate_cost,
                    total_buffer_bytes=problem.memory_of(candidate).total_bytes,
                    generation=step_index,
                )
            )
        delta = candidate_cost - current_cost
        accept = delta <= 0
        if not accept and temperature > 0 and math.isfinite(delta):
            accept = rng.random() < math.exp(-delta / temperature)
        if accept:
            current, current_cost = candidate, candidate_cost
            if current_cost < best_cost:
                best, best_cost = current, current_cost
                history.append((evaluations, best_cost))
        temperature *= cooling
        step = step_index + 1
        if step % config.checkpoint_interval == 0 and on_step is not None:
            on_step(snapshot(step))
            emitted_at = step

    if on_step is not None and emitted_at != step:
        # The run stopped between interval marks (final step, or the
        # evaluation cap landed mid-interval): emit the closing state so
        # the caller's durable checkpoint always matches where we stopped.
        on_step(snapshot(step))

    return GAResult(
        best_genome=best,
        best_cost=best_cost,
        num_evaluations=evaluations,
        history=history,
        samples=samples,
    )
