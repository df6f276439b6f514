"""Figure 1: the two extremes of the capacity-communication trade-off.

The paper's opening figure bounds external memory access between two
extremes: with no on-chip reuse at all, every operand streams per use
("Max EMA ~ 2 * #OPs"); with unlimited capacity, only compulsory traffic
remains ("Min EMA ~ #Wgt + #In + #Out"). Between them, each capacity
point buffers a larger subgraph scope (single layer -> a few nodes ->
the whole graph).

This experiment regenerates that curve with the real machinery: at each
capacity the partition-only optimizer finds the best subgraph scheme, and
the resulting EMA is placed against both analytic bounds. Two shape
claims hold by construction and are asserted downstream: EMA is
monotonically non-increasing in capacity, and it converges to the
compulsory bound once the buffer covers the model's working set.
"""

from __future__ import annotations

from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..dse.cocco import cocco_partition_only
from ..graphs.graph import ComputationGraph
from ..graphs.zoo import get_model
from ..partition.greedy import greedy_partition
from ..config import MemoryConfig
from ..units import kb, to_mb
from .common import DEFAULT_SCALE, Scale, paper_accelerator
from .reporting import ExperimentResult

#: Shared-buffer capacities swept, in KB (small -> large, Fig 1's axis).
CAPACITIES_KB = (192, 384, 768, 1536, 3072, 6144, 12288)


def compulsory_ema_bytes(graph: ComputationGraph) -> int:
    """The Fig 1 lower bound: weights + model inputs + model outputs."""
    return (
        graph.total_weight_bytes
        + graph.model_input_bytes()
        + graph.model_output_bytes()
    )


def streaming_ema_bytes(graph: ComputationGraph) -> int:
    """The Fig 1 upper bound: every operand streams per operation.

    Layer-by-layer execution with no activation or weight residency moves
    each layer's inputs and outputs (and its weights) through DRAM once
    per layer — the "no Wgt&Act buffer" corner of Fig 1.
    """
    total = graph.model_input_bytes()
    for name in graph.compute_names:
        spec = graph.layer(name)
        total += spec.weight_bytes
        total += sum(
            graph.layer(p).output_bytes() for p in graph.predecessors(name)
        )
        total += spec.output_bytes()
    return total


def run(
    models: tuple[str, ...] = ("googlenet", "mobilenet_v2"),
    capacities_kb: tuple[int, ...] = CAPACITIES_KB,
    scale: Scale = DEFAULT_SCALE,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep shared-buffer capacity and record the optimized EMA."""
    result = ExperimentResult(
        experiment="Figure 1: EMA between the streaming and compulsory "
                    "extremes vs on-chip capacity",
        headers=("model", "capacity_KB", "EMA_MB", "of_min", "subgraphs"),
    )
    for model_name in models:
        graph = get_model(model_name)
        floor = compulsory_ema_bytes(graph)
        ceiling = streaming_ema_bytes(graph)
        for capacity_kb in capacities_kb:
            memory = MemoryConfig.shared(kb(capacity_kb))
            evaluator = Evaluator(graph, paper_accelerator(memory=memory))

            def cost_fn(members: frozenset[str]) -> float:
                cost = evaluator.subgraph_cost(members)
                return cost.ema_bytes if cost.feasible else float("inf")

            seeds = (greedy_partition(graph, cost_fn),)
            best = cocco_partition_only(
                evaluator,
                memory,
                metric=Metric.EMA,
                ga_config=scale.ga_config(seed=seed),
                seed_partitions=seeds,
            )
            ema = best.partition_cost.ema_bytes
            result.add_row(
                model_name,
                capacity_kb,
                round(to_mb(ema), 2),
                round(ema / floor, 3),
                best.partition_cost.num_subgraphs,
            )
        result.extra[model_name] = {
            "compulsory_mb": to_mb(floor),
            "streaming_mb": to_mb(ceiling),
        }
        result.notes.append(
            f"{model_name}: compulsory bound {to_mb(floor):.1f} MB, "
            f"streaming bound {to_mb(ceiling):.1f} MB"
        )
    return result

