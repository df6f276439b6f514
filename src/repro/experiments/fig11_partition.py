"""Figure 11: graph-partition quality across eight models (EMA-opt).

Compares Halide's greedy grouping, Irregular-NN's depth-ordered DP, Cocco,
and the exact enumeration on the fixed 1 MB + 1.125 MB platform, with EMA
as the optimization metric. EMA and average bandwidth are normalized to
the Halide baseline; the enumeration is expected to blow its state budget
on the four large irregular models (Transformer, GPT, RandWire-A/B).
"""

from __future__ import annotations

from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..errors import SearchError
from ..graphs.zoo import get_model
from ..partition.dp import dp_partition
from ..partition.enumeration import enumerate_partition
from ..partition.greedy import greedy_partition
from ..dse.cocco import cocco_partition_only
from ..units import to_gbps, to_mb
from .common import DEFAULT_SCALE, FIG11_MODELS, Scale, paper_accelerator
from .reporting import ExperimentResult


def _ema_cost_fn(evaluator: Evaluator):
    def cost_fn(members: frozenset[str]) -> float:
        cost = evaluator.subgraph_cost(members)
        return cost.ema_bytes if cost.feasible else float("inf")

    return cost_fn


def run(
    models: tuple[str, ...] = FIG11_MODELS,
    scale: Scale = DEFAULT_SCALE,
    seed: int = 0,
) -> ExperimentResult:
    """Run all four partitioners on every model."""
    result = ExperimentResult(
        experiment="Figure 11: graph partition, EMA-opt (normalized to Halide)",
        headers=(
            "model",
            "method",
            "EMA_MB",
            "EMA_norm",
            "avgBW_GBps",
            "BW_norm",
            "subgraphs",
        ),
    )
    accel = paper_accelerator()
    for model_name in models:
        graph = get_model(model_name)
        evaluator = Evaluator(graph, accel)
        cost_fn = _ema_cost_fn(evaluator)

        partitions = {}
        partitions["Halide(Greedy)"] = greedy_partition(graph, cost_fn)
        partitions["Irregular-NN(DP)"] = dp_partition(graph, cost_fn)
        ga = cocco_partition_only(
            evaluator,
            accel.memory,
            metric=Metric.EMA,
            ga_config=scale.ga_config(seed=seed),
            # Flexible initialization (Sec 4.3): warm-start from the
            # baselines and let the GA fine-tune them.
            seed_partitions=(
                partitions["Halide(Greedy)"],
                partitions["Irregular-NN(DP)"],
            ),
        )
        partitions["Cocco"] = ga.best_genome.partition

        capacity = accel.memory.activation_capacity

        def prune_fn(members: frozenset[str]) -> bool:
            return evaluator.min_footprint(members) > capacity * 1.25

        try:
            partitions["Enumeration"] = enumerate_partition(
                graph,
                cost_fn,
                max_subgraph_size=scale.enum_max_subgraph,
                max_states=scale.enum_max_states,
                prune_fn=prune_fn,
                max_candidates_per_state=scale.enum_max_states,
            )
        except SearchError:
            partitions["Enumeration"] = None

        baseline_ema = None
        baseline_bw = None
        for method, partition in partitions.items():
            if partition is None:
                result.add_row(model_name, method, "n/a", "n/a", "n/a", "n/a", "n/a")
                continue
            cost = evaluator.evaluate(partition.subgraph_sets)
            ema_mb = to_mb(cost.ema_bytes)
            bw = to_gbps(cost.bandwidth.average_bytes_per_second)
            if baseline_ema is None:
                baseline_ema, baseline_bw = ema_mb, bw
            result.add_row(
                model_name,
                method,
                round(ema_mb, 1),
                round(ema_mb / baseline_ema, 3),
                round(bw, 2),
                round(bw / baseline_bw, 3),
                partition.num_subgraphs,
            )
    result.notes.append(
        "paper: Cocco <= greedy and <= DP everywhere; Cocco matches the "
        "enumeration optimum on the first four models; the enumeration "
        "cannot finish on Transformer/GPT/RandWire"
    )
    return result

