"""Seed-stability study: Cocco versus simulated annealing (Sec 4.2.4).

The paper justifies the genetic core with a stability argument: "SA is an
alternative optimization method for our framework with compatible
operators, but it is not stable as the genetic algorithm in a range of
benchmarks." This experiment quantifies that claim — both co-optimizers
run under several seeds at the same sample budget, and the spread
(standard deviation and worst-case regret over the per-model best cost)
is reported per method.
"""

from __future__ import annotations

import statistics

from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..dse.cocco import cocco_co_optimize
from ..dse.sa import sa_co_optimize
from ..graphs.zoo import get_model
from ..search_space import CapacitySpace
from .common import DEFAULT_SCALE, Scale, paper_accelerator
from .reporting import ExperimentResult

#: Models of the stability comparison (the Fig 12 convergence set).
STABILITY_MODELS = ("resnet50", "googlenet", "randwire_a")


def run(
    models: tuple[str, ...] = STABILITY_MODELS,
    scale: Scale = DEFAULT_SCALE,
    num_seeds: int = 5,
    alpha: float = 0.002,
) -> ExperimentResult:
    """Run both co-optimizers across seeds and summarize the spread."""
    result = ExperimentResult(
        experiment="Stability: Cocco vs SA across seeds "
                    f"({num_seeds} seeds, shared buffer, alpha={alpha})",
        headers=("model", "method", "mean_cost", "std_cost", "best",
                 "worst", "spread_%"),
    )
    space = CapacitySpace.paper_shared()
    for model_name in models:
        graph = get_model(model_name)
        evaluator = Evaluator(graph, paper_accelerator())
        runs: dict[str, list[float]] = {"Cocco": [], "SA": []}
        for seed in range(num_seeds):
            cocco = cocco_co_optimize(
                evaluator, space, metric=Metric.ENERGY, alpha=alpha,
                ga_config=scale.ga_config(seed=seed), refine=False,
            )
            runs["Cocco"].append(cocco.best_cost)
            sa = sa_co_optimize(
                evaluator, space, metric=Metric.ENERGY, alpha=alpha,
                sa_config=scale.sa_config(seed=seed),
            )
            runs["SA"].append(sa.best_cost)
        for method, costs in runs.items():
            mean = statistics.fmean(costs)
            std = statistics.pstdev(costs)
            spread = (max(costs) - min(costs)) / min(costs) * 100
            result.add_row(
                model_name,
                method,
                f"{mean:.3e}",
                f"{std:.3e}",
                f"{min(costs):.3e}",
                f"{max(costs):.3e}",
                round(spread, 1),
            )
        result.extra[model_name] = runs
    result.notes.append(
        "paper claim (Sec 4.2.4): SA 'is not stable as the genetic "
        "algorithm in a range of benchmarks' - compare the std/spread "
        "columns per model"
    )
    return result

