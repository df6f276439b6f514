"""Randomly wired networks (Xie et al., ICCV 2019).

The paper evaluates two RandWire instances generated with the *small* and
*regular* regime configurations. The exact instances are unpublished, so we
generate seeded Watts-Strogatz graphs with the regime parameters
(``K = 4``, ``P = 0.75``) — any in-regime instance exercises the identical
code paths (see DESIGN.md substitutions).

Each random-graph node becomes a ReLU-sepconv-BN triplet: an element-wise
aggregation when it has several in-edges, then a 3x3 depth-wise plus 1x1
point-wise convolution pair. Nodes without in-edges take the previous
stage's output with stride 2 (Xie et al., Sec 3.2).
"""

from __future__ import annotations

from ...errors import GraphError
from ..builder import GraphBuilder
from ..graph import ComputationGraph
from ..tensor import TensorShape

WS_NEIGHBORS = 4
WS_REWIRE_P = 0.75


def _stage_dag(num_nodes: int, seed: int) -> list[tuple[int, ...]]:
    """In-edge lists of a WS graph converted to a DAG by node index."""
    # Imported here, not at module top: networkx takes a large share of
    # ``import repro``, and only RandWire builds need it.
    import networkx as nx

    if num_nodes <= WS_NEIGHBORS:
        raise GraphError(
            f"RandWire stage needs more than {WS_NEIGHBORS} nodes, got {num_nodes}"
        )
    ws = nx.connected_watts_strogatz_graph(
        num_nodes, WS_NEIGHBORS, WS_REWIRE_P, seed=seed
    )
    in_edges: list[tuple[int, ...]] = []
    for node in range(num_nodes):
        preds = sorted(n for n in ws.neighbors(node) if n < node)
        in_edges.append(tuple(preds))
    return in_edges


def _stage(
    b: GraphBuilder,
    stage_input: str,
    num_nodes: int,
    channels: int,
    seed: int,
    tag: str,
) -> str:
    """Build one RandWire stage; returns the stage output layer name."""
    in_edges = _stage_dag(num_nodes, seed)
    outputs: list[str] = []
    consumed: set[int] = set()
    for node, preds in enumerate(in_edges):
        consumed.update(preds)
        if preds:
            sources = [outputs[p] for p in preds]
            src = sources[0] if len(sources) == 1 else b.add(
                sources, name=f"{tag}_n{node}_sum"
            )
            stride = 1
        else:
            src = stage_input
            stride = 2
        x = b.dwconv(src, kernel=3, stride=stride, name=f"{tag}_n{node}_dw")
        x = b.conv(x, channels, kernel=1, stride=1, name=f"{tag}_n{node}_pw")
        outputs.append(x)
    tails = [outputs[n] for n in range(num_nodes) if n not in consumed]
    if len(tails) == 1:
        return tails[0]
    return b.add(tails, name=f"{tag}_out")


def randwire(
    name: str = "randwire",
    nodes_per_stage: int = 10,
    num_stages: int = 3,
    base_channels: int = 78,
    seed: int = 1,
    input_size: int = 224,
) -> ComputationGraph:
    """Generate a seeded RandWire network.

    ``seed`` determines both the wiring of every stage and hence the whole
    architecture; the same seed always yields the same graph.
    """
    b = GraphBuilder(name)
    x = b.input(TensorShape(input_size, input_size, 3), name="image")
    x = b.conv(x, base_channels // 2, kernel=3, stride=2, name="stem")
    channels = base_channels
    for stage in range(1, num_stages + 1):
        x = _stage(
            b, x, nodes_per_stage, channels, seed=seed * 100 + stage, tag=f"s{stage}"
        )
        channels *= 2
    x = b.conv(x, 1280, kernel=1, stride=1, name="head_conv")
    x = b.pool(x, global_pool=True, name="gap")
    b.fc(x, 1000, name="fc")
    return b.build()


def randwire_a(input_size: int = 224) -> ComputationGraph:
    """RandWire-A: the *small* regime (C = 78), seeded instance."""
    return randwire(
        "randwire_a",
        nodes_per_stage=16,
        num_stages=3,
        base_channels=78,
        seed=1,
        input_size=input_size,
    )


def randwire_b(input_size: int = 224) -> ComputationGraph:
    """RandWire-B: the *regular* regime (C = 109), seeded instance."""
    return randwire(
        "randwire_b",
        nodes_per_stage=20,
        num_stages=3,
        base_channels=109,
        seed=2,
        input_size=input_size,
    )
