"""Table 3: multi-core and batch evaluation (shared buffer, co-opt).

For every (cores, batch) in {1, 2, 4} x {1, 2, 8}, co-optimize the
per-core shared buffer and the partition with energy as the metric, then
report energy (mJ), latency (ms), and the chosen per-core buffer size.
The paper's shape: energy usually rises from one to two cores (crossbar
overhead), per-core capacity falls as cores grow, and batch latency
scales sub-linearly thanks to inter-sample weight reuse.
"""

from __future__ import annotations

from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..dse.cocco import cocco_co_optimize
from ..graphs.zoo import get_model
from ..search_space import CapacitySpace
from ..units import ms_from_cycles, to_kb
from .common import CORE_MODELS, DEFAULT_SCALE, Scale, derive_seed, paper_accelerator
from .reporting import ExperimentResult

ALPHA = 0.002
CORE_COUNTS = (1, 2, 4)
BATCH_SIZES = (1, 2, 8)


def run(
    models: tuple[str, ...] = CORE_MODELS,
    core_counts: tuple[int, ...] = CORE_COUNTS,
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
    scale: Scale = DEFAULT_SCALE,
    seed: int = 0,
) -> ExperimentResult:
    """Reproduce Table 3 for the requested models."""
    result = ExperimentResult(
        experiment="Table 3: multi-core and batch (shared buffer, energy-capacity co-opt)",
        headers=("model", "cores", "batch", "energy_mJ", "latency_ms", "size_KB"),
    )
    space = CapacitySpace.paper_shared()
    for model_name in models:
        graph = get_model(model_name)
        for cores in core_counts:
            for batch in batch_sizes:
                accel = paper_accelerator(num_cores=cores)
                evaluator = Evaluator(graph, accel, batch=batch)
                # Stable per-cell stream: (campaign seed, model, cores,
                # batch). The old ``seed + cores*10 + batch`` collided
                # across cells and shifted when the matrix changed.
                cell_seed = derive_seed(seed, "table3", model_name, cores, batch)
                outcome = cocco_co_optimize(
                    evaluator,
                    space,
                    metric=Metric.ENERGY,
                    alpha=ALPHA,
                    ga_config=scale.ga_config(seed=cell_seed),
                    refine=False,
                )
                cost = outcome.partition_cost
                result.add_row(
                    model_name,
                    cores,
                    batch,
                    round(cost.energy_pj / 1e9, 2),
                    round(ms_from_cycles(cost.latency_cycles, accel.frequency_hz), 2),
                    f"{to_kb(outcome.memory.shared_buffer_bytes):.0f}",
                )
    result.notes.append(
        "paper: energy rises 1->2 cores (crossbar), per-core size falls "
        "with more cores, batch latency is sub-linear"
    )
    return result

