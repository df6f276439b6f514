"""SA-based co-optimization baseline (Sec 4.2.4, Tables 1/2).

Same genome space, operators, and Formula 2 objective as Cocco, but the
search is a single simulated-annealing chain instead of a population —
the configuration whose instability the paper's convergence study
highlights.
"""

from __future__ import annotations

from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..ga.annealing import SAConfig, simulated_annealing
from ..ga.problem import OptimizationProblem
from ..search_space import CapacitySpace
from .results import DSEResult


def sa_co_optimize(
    evaluator: Evaluator,
    space: CapacitySpace,
    metric: Metric = Metric.ENERGY,
    alpha: float = 0.002,
    sa_config: SAConfig | None = None,
) -> DSEResult:
    """Joint partition + capacity search with simulated annealing.

    Checkpointed, resumable and budget-capped SA runs call
    :func:`repro.ga.annealing.simulated_annealing` directly, as the
    suite's SA cells do.
    """
    problem = OptimizationProblem(
        evaluator=evaluator, metric=metric, alpha=alpha, space=space
    )
    result = simulated_annealing(problem, sa_config)
    _, partition_cost = problem.evaluate(result.best_genome)
    return DSEResult(
        method="SA",
        best_genome=result.best_genome,
        best_cost=result.best_cost,
        partition_cost=partition_cost,
        num_evaluations=result.num_evaluations,
        history=result.history,
        samples=result.samples,
    )
