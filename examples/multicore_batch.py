"""Multi-core scaling and batch processing (the Table 3 setting).

    python examples/multicore_batch.py [model]

Co-optimizes the per-core shared buffer and the graph partition for each
(cores, batch) point, showing the paper's three effects: crossbar
overhead from one to two cores, shrinking per-core capacity with more
cores, and sub-linear latency growth with batch size.
"""

import sys

from repro import (
    CapacitySpace,
    Evaluator,
    GAConfig,
    Metric,
    cocco_co_optimize,
    get_model,
)
from repro.experiments.common import paper_accelerator
from repro.units import ms_from_cycles, to_kb


def main(model_name: str = "googlenet") -> None:
    space = CapacitySpace.paper_shared()
    graph = get_model(model_name)
    print(f"{model_name}: multi-core / batch study (shared buffer, energy co-opt)")
    print(f"{'cores':>5s} {'batch':>5s} {'energy':>9s} {'latency':>9s} {'size':>8s}")
    for cores in (1, 2, 4):
        for batch in (1, 2, 8):
            accel = paper_accelerator(num_cores=cores)
            evaluator = Evaluator(graph, accel, batch=batch)
            outcome = cocco_co_optimize(
                evaluator,
                space,
                metric=Metric.ENERGY,
                alpha=0.002,
                ga_config=GAConfig(population_size=24, generations=8),
                refine=False,
            )
            cost = outcome.partition_cost
            print(
                f"{cores:5d} {batch:5d} "
                f"{cost.energy_pj / 1e9:7.2f}mJ "
                f"{ms_from_cycles(cost.latency_cycles, accel.frequency_hz):7.2f}ms "
                f"{to_kb(outcome.memory.shared_buffer_bytes):6.0f}KB"
            )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "googlenet")
