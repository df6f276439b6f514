"""Figure 12: convergence curves and sample efficiency.

Tracks best-cost-versus-samples for the two-step schemes (Buf(S/M/L)+GA,
RS+GA, GS+GA) and the co-optimizers (SA, Cocco) on ResNet50, GoogleNet,
and RandWire, then reports the Fig 12(d) table: samples needed to get
within 5% of Cocco's final cost. Cocco is expected to need the fewest.
"""

from __future__ import annotations

from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..dse.cocco import cocco_co_optimize
from ..dse.fixed import optimize_fixed
from ..dse.results import DSEResult
from ..dse.sa import sa_co_optimize
from ..dse.two_step import grid_search_ga, random_search_ga
from ..graphs.zoo import get_model
from ..search_space import CapacitySpace
from .common import DEFAULT_SCALE, Scale, paper_accelerator
from .reporting import ExperimentResult

ALPHA = 0.002
CONVERGENCE_MODELS = ("resnet50", "googlenet", "randwire_a")
THRESHOLD_FACTOR = 1.05


def run_methods(
    model_name: str, scale: Scale, seed: int
) -> dict[str, DSEResult]:
    """All Fig 12 methods on one model, with histories."""
    graph = get_model(model_name)
    evaluator = Evaluator(graph, paper_accelerator())
    space = CapacitySpace.paper_separate()
    methods: dict[str, DSEResult] = {}
    for preset in ("small", "medium", "large"):
        memory = space.fixed_preset(preset)
        methods[f"Buf({preset[0].upper()})+GA"] = optimize_fixed(
            evaluator,
            memory,
            metric=Metric.ENERGY,
            alpha=ALPHA,
            ga_config=scale.ga_config(seed=seed),
            method_name=f"Buf({preset[0].upper()})+GA",
        )
    methods["RS+GA"] = random_search_ga(
        evaluator,
        space,
        num_candidates=scale.rs_candidates,
        metric=Metric.ENERGY,
        alpha=ALPHA,
        ga_config=scale.ga_config(seed=seed + 1),
        seed=seed + 1,
    )
    methods["GS+GA"] = grid_search_ga(
        evaluator,
        space,
        stride=scale.gs_stride,
        max_candidates=scale.gs_max_candidates,
        metric=Metric.ENERGY,
        alpha=ALPHA,
        ga_config=scale.ga_config(seed=seed + 2),
    )
    methods["SA"] = sa_co_optimize(
        evaluator,
        space,
        metric=Metric.ENERGY,
        alpha=ALPHA,
        sa_config=scale.co_opt_sa_config(seed=seed + 3),
    )
    methods["Cocco"] = cocco_co_optimize(
        evaluator,
        space,
        metric=Metric.ENERGY,
        alpha=ALPHA,
        ga_config=scale.co_opt_ga_config(seed=seed + 4),
        refine=False,
    )
    return methods


def run(
    models: tuple[str, ...] = CONVERGENCE_MODELS,
    scale: Scale = DEFAULT_SCALE,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Fig 12: final costs plus the samples-to-1.05x table."""
    result = ExperimentResult(
        experiment="Figure 12: convergence and sample efficiency",
        headers=(
            "model",
            "method",
            "final_cost",
            "samples",
            "samples_to_1.05x_Cocco",
        ),
    )
    for model_name in models:
        methods = run_methods(model_name, scale, seed)
        threshold = methods["Cocco"].best_cost * THRESHOLD_FACTOR
        for name, outcome in methods.items():
            reached = outcome.samples_to_reach(threshold)
            result.add_row(
                model_name,
                name,
                f"{outcome.best_cost:.3e}",
                outcome.num_evaluations,
                reached if reached is not None else "never",
            )
        result.extra[model_name] = {
            name: outcome.history for name, outcome in methods.items()
        }
    result.notes.append(
        "paper Fig 12(d): Cocco reaches 1.05x of its final cost with the "
        "fewest samples (e.g. 3.5K on ResNet50 vs 9K-12.5K for baselines)"
    )
    return result

