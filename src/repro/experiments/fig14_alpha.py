"""Figure 14: the alpha trade-off between energy and memory capacity.

Sweeping ``alpha`` from 5e-4 to 1e-2 in Formula 2: a larger alpha weights
the mapping cost more heavily, so the optimizer buys more capacity to cut
energy. Energies are normalized to the smallest alpha, as in the paper.
"""

from __future__ import annotations

from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..dse.cocco import cocco_co_optimize
from ..graphs.zoo import get_model
from ..search_space import CapacitySpace
from ..units import to_mb
from .common import CORE_MODELS, DEFAULT_SCALE, Scale, derive_seed, paper_accelerator
from .reporting import ExperimentResult

ALPHAS = (5e-4, 1e-3, 2e-3, 5e-3, 1e-2)


def run(
    models: tuple[str, ...] = CORE_MODELS,
    alphas: tuple[float, ...] = ALPHAS,
    scale: Scale = DEFAULT_SCALE,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce the Fig 14 sweep."""
    result = ExperimentResult(
        experiment="Figure 14: energy vs capacity across alpha (M=energy)",
        headers=(
            "model",
            "alpha",
            "capacity_MB",
            "energy_mJ",
            "energy_norm",
        ),
    )
    space = CapacitySpace.paper_shared()
    for model_name in models:
        graph = get_model(model_name)
        evaluator = Evaluator(graph, paper_accelerator())
        base_energy = None
        for alpha in alphas:
            # The cell seed depends only on (campaign seed, model, alpha):
            # adding or reordering alphas cannot shift any other cell's
            # random stream.
            cell_seed = derive_seed(seed, "fig14", model_name, alpha)
            outcome = cocco_co_optimize(
                evaluator,
                space,
                metric=Metric.ENERGY,
                alpha=alpha,
                ga_config=scale.co_opt_ga_config(seed=cell_seed),
                refine=False,
            )
            energy_mj = outcome.partition_cost.energy_pj / 1e9
            if base_energy is None:
                base_energy = energy_mj
            result.add_row(
                model_name,
                alpha,
                round(to_mb(outcome.memory.total_bytes), 3),
                round(energy_mj, 3),
                round(energy_mj / base_energy, 3),
            )
    result.notes.append(
        "paper: capacity grows and normalized energy falls as alpha grows; "
        "memory-intensive NasNet needs the largest capacity"
    )
    return result

