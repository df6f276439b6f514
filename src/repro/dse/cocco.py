"""Cocco co-optimization: the paper's headline method (Sec 4.4, 5.3).

One genetic search explores partitions and memory capacities together
under Formula 2. The paper's protocol then freezes the recommended
capacity and runs a partition-only refinement to obtain the final cost
("we first perform the hardware-mapping co-exploration to determine the
suitable memory configuration ... and then solely execute the
partition-only Cocco", Sec 5.3.1); ``refine`` reproduces that second
stage.
"""

from __future__ import annotations

from typing import Sequence

from ..config import MemoryConfig
from ..cost.evaluator import Evaluator
from ..cost.objective import Metric, co_opt_objective
from ..ga.engine import GAConfig, GeneticEngine
from ..ga.genome import Genome
from ..ga.problem import OptimizationProblem
from ..partition.partition import Partition
from ..search_space import CapacitySpace
from .results import DSEResult


def cocco_partition_only(
    evaluator: Evaluator,
    memory: MemoryConfig,
    metric: Metric = Metric.EMA,
    ga_config: GAConfig | None = None,
    method_name: str = "Cocco",
    seed_partitions: Sequence[Partition] = (),
) -> DSEResult:
    """Partition-only Cocco (Formula 1) at a fixed memory configuration.

    ``seed_partitions`` warm-start the population — the paper's "flexible
    initialization" property (Sec 4.3): results of other optimization
    algorithms can initialize the GA, which then fine-tunes them.
    """
    problem = OptimizationProblem(
        evaluator=evaluator, metric=metric, alpha=None, fixed_memory=memory
    )
    seeds = [Genome(partition=p, memory=memory) for p in seed_partitions]
    result = GeneticEngine(problem, ga_config).run(seeds=seeds)
    _, partition_cost = problem.evaluate(result.best_genome)
    return DSEResult(
        method=method_name,
        best_genome=result.best_genome.with_memory(memory),
        best_cost=result.best_cost,
        partition_cost=partition_cost,
        num_evaluations=result.num_evaluations,
        history=result.history,
        samples=result.samples,
    )


def cocco_co_optimize(
    evaluator: Evaluator,
    space: CapacitySpace,
    metric: Metric = Metric.ENERGY,
    alpha: float = 0.002,
    ga_config: GAConfig | None = None,
    refine: bool = True,
) -> DSEResult:
    """Joint partition + capacity search under Formula 2.

    With ``refine`` the partition-only refinement runs at the
    recommended capacity under the same ``ga_config`` (each engine
    builds its own evaluation fan-out from ``ga_config.workers``).
    """
    problem = OptimizationProblem(
        evaluator=evaluator, metric=metric, alpha=alpha, space=space
    )
    result = GeneticEngine(problem, ga_config).run()
    best_genome = result.best_genome
    total_evals = result.num_evaluations
    history = list(result.history)

    if refine:
        refinement = cocco_partition_only(
            evaluator,
            best_genome.memory,
            metric=metric,
            ga_config=ga_config,
        )
        refined_total = co_opt_objective(
            refinement.partition_cost, best_genome.memory, alpha, metric
        )
        total_evals += refinement.num_evaluations
        if refined_total < result.best_cost:
            best_genome = refinement.best_genome
            history.append((total_evals, refined_total))
            result.best_cost = refined_total

    problem_final = OptimizationProblem(
        evaluator=evaluator, metric=metric, alpha=alpha, space=space
    )
    _, partition_cost = problem_final.evaluate(best_genome)
    return DSEResult(
        method="Cocco",
        best_genome=best_genome,
        best_cost=result.best_cost,
        partition_cost=partition_cost,
        num_evaluations=total_evals,
        history=history,
        samples=result.samples,
    )
