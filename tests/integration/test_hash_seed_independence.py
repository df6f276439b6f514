"""Hash-seed independence of the sorted-set-iteration fixes.

Each primitive fixed here (union-find bucketing, interface-input
discovery, tiling derivation, subgraph extraction, crossover's decided
map, quotient reachability) used to iterate a ``set`` raw — so its
internal visit order, and in some cases its output, depended on
``PYTHONHASHSEED``. In-process tests cannot vary the hash seed, so the
regression check runs one canonical scenario per fixed site in two
subprocesses with *different* hash seeds and asserts byte-identical
JSON output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: One scenario per fixed site, folded into a single canonical document.
SCENARIO = textwrap.dedent(
    """
    import json
    import random

    from repro.config import MemoryConfig
    from repro.cost.ema import profile_subgraph, profile_subgraph_reference
    from repro.execution.tiling import TilingStructure, derive_tiling
    from repro.ga.crossover import crossover
    from repro.ga.genome import Genome
    from repro.ga.mutation import merge_subgraph, split_subgraph
    from repro.graphs.graph import ComputationGraph
    from repro.graphs.ops import LayerSpec, OpKind, input_layer
    from repro.graphs.tensor import TensorShape
    from repro.graphs.transforms import extract_subgraph
    from repro.partition.partition import Partition
    from repro.partition.subgraph import (
        quotient_reachable,
        weakly_connected_components,
    )
    from repro.partition.validity import normalize_groups


    def conv(name, shape, channels):
        out = shape.conv_output(3, 1, channels)
        return LayerSpec(
            name, OpKind.CONV, out, kernel=3, stride=1,
            weight_bytes=9 * shape.channels * channels,
            macs=out.elements * 9 * shape.channels,
        )


    def build():
        g = ComputationGraph("fixture")
        shape = TensorShape(16, 16, 8)
        g.add_layer(input_layer("in", shape))
        g.add_layer(conv("stem", shape, 8), ["in"])
        for arm in ("alpha", "beta", "gamma"):
            g.add_layer(conv(arm, shape, 8), ["stem"])
        g.add_layer(
            LayerSpec("join", OpKind.ELTWISE, shape, kernel=1, stride=1,
                      weight_bytes=0, macs=shape.elements),
            ["alpha", "beta", "gamma"],
        )
        g.add_layer(conv("head", shape, 8), ["join"])
        return g


    graph = build()
    arms = {"alpha", "beta", "gamma", "join"}
    out = {}

    # partition/subgraph.py: union-find over a raw member set
    components = weakly_connected_components(
        graph, {"stem", "alpha", "gamma", "head"}
    )
    out["wcc"] = [sorted(c) for c in components]

    # partition/validity.py: claim, split, cycle merge and condensation
    # order over integer ids. {alpha, beta} share no edge and is split;
    # each half then sits on a quotient cycle through the stem group and
    # is merged back into it. The assignment's key order is the
    # checkpointed one, so it is kept unsorted.
    normalized = normalize_groups(
        graph, [{"stem", "gamma", "join"}, {"alpha", "beta"}, {"head"}]
    )
    out["normalize"] = {
        "sets": [sorted(s) for s in normalized.subgraph_sets],
        "assignment": list(normalized.assignment.items()),
    }

    # partition/subgraph.py: adjacency built from an edge set
    edges = {(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)}
    out["qr"] = [
        quotient_reachable(edges, 0, 2, skip_direct)
        for skip_direct in (False, True)
    ]

    # graphs/transforms.py: membership validation + extraction
    sub = extract_subgraph(graph, arms)
    out["extract"] = [
        (name, sorted(sub.predecessors(name)))
        for name in sub.topological_order()
    ]

    # execution/tiling.py: legacy walk and single-pass structure
    tiling = derive_tiling(graph, arms, output_tile_rows=2)
    out["tiling"] = [
        (n.name, n.delta, n.tile_rows, n.upd_num,
         n.is_interface_input, n.is_output)
        for n in tiling.nodes.values()
    ]
    out["elementary_ops"] = tiling.num_elementary_ops
    structure = TilingStructure(graph, frozenset(arms))
    out["signature"] = repr(structure.signature)

    # cost/ema.py: fast and reference profiles (interface inputs,
    # weight tables, byte/MAC reductions)
    for label, profile in (
        ("fast", profile_subgraph(graph, arms, 2)),
        ("reference", profile_subgraph_reference(graph, arms, 2)),
    ):
        out[f"profile_{label}"] = {
            "io": [profile.input_bytes, profile.output_bytes],
            "weights": list(profile.layer_weights),
            "macs": profile.macs,
            "options": [
                (o.tile_rows, o.activation_bytes, o.num_elementary_ops)
                for o in profile.tile_options
            ],
        }

    # ga/crossover.py: the decided-map fill order
    memory = MemoryConfig()
    dad = Genome(
        Partition.from_groups(
            graph,
            [{"stem"}, {"alpha", "beta", "gamma", "join"}, {"head"}],
        ),
        memory,
    )
    mom = Genome(
        Partition.from_groups(
            graph,
            [{"stem", "alpha"}, {"beta"}, {"gamma", "join", "head"}],
        ),
        memory,
    )
    child = crossover(dad, mom, random.Random(7))
    out["crossover"] = sorted(child.partition.assignment.items())

    # ga/mutation.py round trip over the offspring keeps the scenario
    # honest end-to-end (membership-only set use, must stay stable)
    mutated = merge_subgraph(split_subgraph(child, random.Random(11)),
                             random.Random(13))
    out["mutated"] = sorted(mutated.partition.assignment.items())

    print(json.dumps(out, sort_keys=True))
    """
)


def run_with_hash_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout


class TestHashSeedIndependence:
    def test_fixed_sites_are_hash_seed_independent(self):
        baseline = run_with_hash_seed("0")
        for seed in ("1", "31337"):
            assert run_with_hash_seed(seed) == baseline, (
                f"output diverges under PYTHONHASHSEED={seed}"
            )

    def test_scenario_exercises_every_fixed_site(self):
        payload = json.loads(run_with_hash_seed("0"))
        assert set(payload) == {
            "wcc",
            "normalize",
            "qr",
            "extract",
            "tiling",
            "elementary_ops",
            "signature",
            "profile_fast",
            "profile_reference",
            "crossover",
            "mutated",
        }
        # fast and reference pipelines agree on the profile itself
        assert payload["profile_fast"] == payload["profile_reference"]
        # the grouping really needed a split and a cycle merge
        assert payload["normalize"]["sets"] == [
            ["alpha", "beta", "gamma", "join", "stem"],
            ["head"],
        ]
