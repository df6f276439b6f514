"""Fixed-hardware baseline: partition-only GA at a preset capacity.

The Table 1/2 rows Buf(S), Buf(M), Buf(L): the memory configuration is
frozen and only the graph partition is optimized (Formula 1); the
reported cost re-prices the result with Formula 2 so it is comparable to
the co-exploration methods.
"""

from __future__ import annotations

from ..config import MemoryConfig
from ..cost.evaluator import Evaluator
from ..cost.objective import Metric, co_opt_objective
from ..ga.engine import GAConfig, GeneticEngine
from ..ga.problem import OptimizationProblem
from .results import DSEResult


def optimize_fixed(
    evaluator: Evaluator,
    memory: MemoryConfig,
    metric: Metric = Metric.ENERGY,
    alpha: float = 0.002,
    ga_config: GAConfig | None = None,
    method_name: str = "fixed",
) -> DSEResult:
    """Partition-only GA at ``memory``; cost reported via Formula 2."""
    problem = OptimizationProblem(
        evaluator=evaluator, metric=metric, alpha=None, fixed_memory=memory
    )
    result = GeneticEngine(problem, ga_config).run()
    _, partition_cost = problem.evaluate(result.best_genome)
    total = co_opt_objective(partition_cost, memory, alpha, metric)
    history = [
        (samples, memory.total_bytes + alpha * value)
        for samples, value in result.history
    ]
    return DSEResult(
        method=method_name,
        best_genome=result.best_genome.with_memory(memory),
        best_cost=total,
        partition_cost=partition_cost,
        num_evaluations=result.num_evaluations,
        history=history,
        samples=result.samples,
    )
