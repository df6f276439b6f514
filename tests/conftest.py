"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator

import pytest
from hypothesis import strategies as st

from repro.config import AcceleratorConfig, MemoryConfig
from repro.graphs.graph import ComputationGraph
from repro.graphs.ops import LayerSpec, OpKind, input_layer
from repro.graphs.tensor import TensorShape
from repro.units import kb


# ---------------------------------------------------------------------------
# Hand-built graphs
# ---------------------------------------------------------------------------
def build_chain(depth: int = 4, size: int = 32, channels: int = 8) -> ComputationGraph:
    """A plain conv chain: input -> conv_1 -> ... -> conv_depth."""
    g = ComputationGraph(f"chain{depth}")
    g.add_layer(input_layer("in", TensorShape(size, size, channels)))
    prev = "in"
    shape = TensorShape(size, size, channels)
    for i in range(1, depth + 1):
        out = shape.conv_output(3, 1, channels)
        g.add_layer(
            LayerSpec(
                f"conv{i}",
                OpKind.CONV,
                out,
                kernel=3,
                stride=1,
                weight_bytes=3 * 3 * channels * channels,
                macs=out.elements * 9 * channels,
            ),
            [prev],
        )
        prev = f"conv{i}"
        shape = out
    return g


def build_diamond(size: int = 32, channels: int = 8) -> ComputationGraph:
    """input -> stem -> {left, right} -> join : the smallest branchy DAG."""
    g = ComputationGraph("diamond")
    shape = TensorShape(size, size, channels)
    g.add_layer(input_layer("in", shape))
    g.add_layer(
        LayerSpec("stem", OpKind.CONV, shape, kernel=3, stride=1,
                  weight_bytes=9 * channels * channels, macs=shape.elements * 9 * channels),
        ["in"],
    )
    g.add_layer(
        LayerSpec("left", OpKind.CONV, shape, kernel=1, stride=1,
                  weight_bytes=channels * channels, macs=shape.elements * channels),
        ["stem"],
    )
    g.add_layer(
        LayerSpec("right", OpKind.CONV, shape, kernel=3, stride=1,
                  weight_bytes=9 * channels * channels, macs=shape.elements * 9 * channels),
        ["stem"],
    )
    g.add_layer(
        LayerSpec("join", OpKind.ELTWISE, shape, macs=shape.elements),
        ["left", "right"],
    )
    return g


def build_fig5() -> ComputationGraph:
    """The paper's Fig 5 worked example (1D convolutions)."""
    g = ComputationGraph("fig5")
    g.add_layer(input_layer("in_a", TensorShape(40, 1, 1)))
    g.add_layer(input_layer("in_b", TensorShape(20, 1, 1)))
    g.add_layer(
        LayerSpec("node0", OpKind.CONV, TensorShape(19, 1, 1), kernel=3, stride=2),
        ["in_a"],
    )
    g.add_layer(
        LayerSpec("node1", OpKind.CONV, TensorShape(18, 1, 1), kernel=3, stride=1),
        ["in_a", "in_b"],
    )
    g.add_layer(
        LayerSpec("node2", OpKind.CONV, TensorShape(20, 1, 1), kernel=1, stride=1),
        ["in_b"],
    )
    return g


def build_random_dag(seed: int, num_layers: int = 10) -> ComputationGraph:
    """A seeded random DAG of conv / pool / eltwise layers.

    Spatial sizes shrink monotonically along any path so shapes always
    compose; eltwise joins pick same-shaped producers.
    """
    rng = random.Random(seed)
    g = ComputationGraph(f"rand{seed}")
    shape = TensorShape(32, 32, 4)
    g.add_layer(input_layer("in", shape))
    produced: list[tuple[str, TensorShape]] = [("in", shape)]
    for i in range(num_layers):
        name = f"n{i}"
        src_name, src_shape = produced[rng.randrange(len(produced))]
        kind = rng.choice(["conv", "conv", "pool", "eltwise"])
        if kind == "conv":
            kernel = rng.choice([1, 3, 5])
            stride = rng.choice([1, 1, 2])
            out = src_shape.conv_output(kernel, stride, src_shape.channels)
            spec = LayerSpec(
                name, OpKind.CONV, out, kernel=kernel, stride=stride,
                weight_bytes=kernel * kernel * src_shape.channels * out.channels,
                macs=out.elements * kernel * kernel * src_shape.channels,
            )
            g.add_layer(spec, [src_name])
            produced.append((name, out))
        elif kind == "pool":
            out = src_shape.conv_output(2, 2, src_shape.channels)
            spec = LayerSpec(
                name, OpKind.POOL, out, kernel=2, stride=2,
                macs=out.elements * 4,
            )
            g.add_layer(spec, [src_name])
            produced.append((name, out))
        else:
            peers = [
                (n, s) for n, s in produced
                if s == src_shape and n != src_name and n != "in"
            ]
            if peers and src_name != "in":
                other = peers[rng.randrange(len(peers))][0]
                spec = LayerSpec(
                    name, OpKind.ELTWISE, src_shape, macs=src_shape.elements
                )
                g.add_layer(spec, [src_name, other])
                produced.append((name, src_shape))
            else:
                out = src_shape.conv_output(3, 1, src_shape.channels)
                spec = LayerSpec(
                    name, OpKind.CONV, out, kernel=3, stride=1,
                    weight_bytes=9 * src_shape.channels * out.channels,
                    macs=out.elements * 9 * src_shape.channels,
                )
                g.add_layer(spec, [src_name])
                produced.append((name, out))
    return g


def connected_members(graph, rng: random.Random, size: int) -> frozenset[str]:
    """A weakly connected set of compute layers grown from a random seed."""
    compute = graph.compute_names
    members = {rng.choice(compute)}
    while len(members) < size:
        frontier = sorted(
            {
                other
                for name in members
                for other in (*graph.predecessors(name), *graph.successors(name))
                if not graph.layer(other).is_input
            }
            - members
        )
        if not frontier:
            break
        members.add(rng.choice(frontier))
    return frozenset(members)


def fresh_model(name: str) -> ComputationGraph:
    """A newly built zoo network, with an empty subgraph store.

    ``get_model`` returns one cached graph per name, and every evaluator
    of that graph shares its store, so earlier tests may have derived
    its subgraphs already. A test that counts an evaluator's own work
    (profiles derived, keys primed) builds its graph here.
    """
    from repro.graphs import zoo

    return getattr(zoo, name)()


def fresh_copy(graph: ComputationGraph) -> ComputationGraph:
    """A layer-for-layer copy of ``graph``, with an empty subgraph store.

    Same names, specs, insertion order and input order, so the copy has
    the same topological order and prices every member set the same. A
    test that needs two evaluators of one network to derive everything
    independently (a cold evaluator, or a serial baseline for priming)
    gives the second one a copy.
    """
    copy = ComputationGraph(graph.name)
    for name in graph.layer_names:
        copy.add_layer(graph.layer(name), graph.predecessors(name))
    return copy


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def chain_graph() -> ComputationGraph:
    return build_chain()


@pytest.fixture
def diamond_graph() -> ComputationGraph:
    return build_diamond()


@pytest.fixture
def fig5_graph() -> ComputationGraph:
    return build_fig5()


@pytest.fixture
def small_memory() -> MemoryConfig:
    return MemoryConfig.separate(kb(64), kb(64))


@pytest.fixture
def small_accel(small_memory) -> AcceleratorConfig:
    return AcceleratorConfig(memory=small_memory)


# ---------------------------------------------------------------------------
# Registry transports
# ---------------------------------------------------------------------------
#: Every registry transport backend: the shared-directory semantics, the
#: object-store transport over an in-process store, and the same
#: transport speaking real HTTP to the fake S3-subset server.
TRANSPORT_KINDS = ("fs", "memory", "http")


@contextmanager
def open_transport(kind: str, root) -> Iterator:
    """A fresh, empty transport of ``kind`` (``root``: the fs directory)."""
    from repro.distrib.objectstore import (
        ObjectStore,
        ObjectStoreTransport,
        serve_in_thread,
    )
    from repro.runs.transport import FsTransport, resolve_transport

    if kind == "fs":
        yield FsTransport(root)
    elif kind == "memory":
        yield ObjectStoreTransport(ObjectStore())
    else:
        server, _thread = serve_in_thread(("127.0.0.1", 0), ObjectStore())
        try:
            yield resolve_transport(server.url("conformance"))
        finally:
            server.shutdown()
            server.server_close()


@pytest.fixture(params=TRANSPORT_KINDS)
def transport(request, tmp_path):
    with open_transport(request.param, tmp_path / "registry") as opened:
        yield opened


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------
dag_seeds = st.integers(min_value=0, max_value=10_000)
dag_sizes = st.integers(min_value=3, max_value=16)


@st.composite
def random_dags(draw) -> ComputationGraph:
    """Strategy producing seeded random DAGs."""
    seed = draw(dag_seeds)
    size = draw(dag_sizes)
    return build_random_dag(seed, size)
