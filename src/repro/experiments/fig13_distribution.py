"""Figure 13: how the sample distribution drifts during optimization.

Cocco's co-optimization run records every sample; the samples are bucketed
into ten equal groups by sample index, and per group we report the
centroid of (total buffer size, energy) plus the iso-cost intercept
``BUF + alpha * E``. The paper's observation: the distribution moves
toward a lower intercept and becomes more concentrated in later
generations.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import pstdev

from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..dse.cocco import cocco_co_optimize
from ..graphs.zoo import get_model
from ..search_space import CapacitySpace
from ..units import to_mb
from .common import CORE_MODELS, DEFAULT_SCALE, Scale, paper_accelerator
from .reporting import ExperimentResult

ALPHA = 0.002
NUM_GROUPS = 10


def run(
    models: tuple[str, ...] = CORE_MODELS,
    scale: Scale = DEFAULT_SCALE,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce the Fig 13 sample-distribution statistics."""
    result = ExperimentResult(
        experiment="Figure 13: sample distribution over optimization (alpha=0.002)",
        headers=(
            "model",
            "group",
            "samples",
            "mean_buf_MB",
            "mean_energy_mJ",
            "intercept",
            "cost_std",
        ),
    )
    space = CapacitySpace.paper_shared()
    for model_name in models:
        graph = get_model(model_name)
        evaluator = Evaluator(graph, paper_accelerator())
        config = replace(scale.co_opt_ga_config(seed=seed), record_samples=True)
        outcome = cocco_co_optimize(
            evaluator,
            space,
            metric=Metric.ENERGY,
            alpha=ALPHA,
            ga_config=config,
            refine=False,
        )
        samples = [s for s in outcome.samples if s.cost != float("inf")]
        if not samples:
            continue
        group_size = max(1, len(samples) // NUM_GROUPS)
        for group in range(NUM_GROUPS):
            chunk = samples[group * group_size : (group + 1) * group_size]
            if not chunk:
                break
            mean_buf = sum(s.total_buffer_bytes for s in chunk) / len(chunk)
            mean_cost = sum(s.cost for s in chunk) / len(chunk)
            # The sample cost is Formula 2 (the iso-cost intercept); the
            # energy coordinate of the scatter is recovered from it.
            mean_energy_mj = (mean_cost - mean_buf) / ALPHA / 1e9
            result.add_row(
                model_name,
                group,
                len(chunk),
                round(to_mb(mean_buf), 3),
                round(mean_energy_mj, 3),
                f"{mean_cost:.3e}",
                f"{pstdev([s.cost for s in chunk]):.2e}" if len(chunk) > 1 else "0",
            )
        result.extra[model_name] = samples
    result.notes.append(
        "paper: later groups sit on lower iso-cost intercepts and are more "
        "centralized (smaller spread)"
    )
    return result

