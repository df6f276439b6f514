"""Figure 3: EMA and bandwidth for subgraphs fusing L = 1, 3, 5 layers.

The motivation study: fusing consecutive layers into subgraphs of target
size L on the fixed 2 TOPS platform (1 MB global + 1.125 MB weight
buffer) reduces external memory access by 42-75% and average bandwidth by
27-68%, with diminishing returns from L=3 to L=5.
"""

from __future__ import annotations

from ..cost.evaluator import Evaluator
from ..graphs.graph import ComputationGraph
from ..graphs.zoo import get_model
from ..partition.partition import Partition
from ..partition.validity import normalize_groups, split_infeasible
from ..units import to_gbps, to_mb
from .common import CORE_MODELS, paper_accelerator
from .reporting import ExperimentResult

FUSION_LEVELS = (1, 3, 5)


def chain_fusion_partition(
    graph: ComputationGraph, target_size: int
) -> Partition:
    """Fuse ``target_size`` layers at a time into connected subgraphs.

    This is the simple fusion policy of the motivation study — not a
    search. Layers are scheduled Kahn-style; each group grows by preferring
    ready layers adjacent to its current members so groups stay connected
    even on branchy graphs, closing when the target size is reached or no
    adjacent layer is ready.
    """
    compute = set(graph.compute_names)
    pending = {
        n: sum(1 for p in graph.predecessors(n) if p in compute)
        for n in graph.compute_names
    }
    ready = [n for n in graph.compute_names if pending[n] == 0]
    groups: list[set[str]] = []
    current: set[str] = set()

    def release(name: str) -> None:
        for succ in graph.successors(name):
            if succ in pending:
                pending[succ] -= 1
                if pending[succ] == 0:
                    ready.append(succ)

    while ready:
        pick = None
        if current:
            for candidate in ready:
                neighbors = (*graph.predecessors(candidate), *graph.successors(candidate))
                if any(n in current for n in neighbors):
                    pick = candidate
                    break
        if pick is None:
            if current:
                groups.append(current)
                current = set()
            pick = ready[0]
        ready.remove(pick)
        current.add(pick)
        del pending[pick]
        release(pick)
        if len(current) >= target_size:
            groups.append(current)
            current = set()
    if current:
        groups.append(current)
    return normalize_groups(graph, groups)


def run(
    models: tuple[str, ...] = CORE_MODELS,
    levels: tuple[int, ...] = FUSION_LEVELS,
) -> ExperimentResult:
    """Evaluate every model at every fusion level."""
    result = ExperimentResult(
        experiment="Figure 3: layer fusion (L = subgraph size)",
        headers=(
            "model",
            "L",
            "mean_size",
            "EMA_MB",
            "EMA_vs_L1_%",
            "avgBW_GBps",
            "BW_vs_L1_%",
        ),
    )
    accel = paper_accelerator()
    for model_name in models:
        graph = get_model(model_name)
        evaluator = Evaluator(graph, accel)

        def fits(members: frozenset[str]) -> bool:
            return evaluator.subgraph_cost(members).feasible

        base_ema = None
        base_bw = None
        for level in levels:
            partition = chain_fusion_partition(graph, level)
            partition = split_infeasible(partition, fits)
            cost = evaluator.evaluate(partition.subgraph_sets)
            mean_size = len(graph.compute_names) / partition.num_subgraphs
            ema_mb = to_mb(cost.ema_bytes)
            bw = to_gbps(cost.bandwidth.average_bytes_per_second)
            if base_ema is None:
                base_ema, base_bw = ema_mb, bw
            result.add_row(
                model_name,
                level,
                round(mean_size, 2),
                round(ema_mb, 1),
                round((ema_mb / base_ema - 1) * 100, 1),
                round(bw, 2),
                round((bw / base_bw - 1) * 100, 1),
            )
    result.notes.append(
        "paper: L=3 cuts EMA 42.3-74.7% and avg BW 26.8-67.8% vs L=1; "
        "L=5 adds only marginal gains"
    )
    return result

