"""The retained naive evaluation pipeline (equivalence oracle).

The fast pipeline in :mod:`repro.cost.evaluator` must price partitions
*bit-identically* to the straightforward implementation it replaced.
This module keeps that implementation alive in two forms:

* :func:`price_subgraph_reference` / :func:`evaluate_partition_reference`
  — cache-free, loop-based pricing built on
  :func:`~repro.cost.ema.profile_subgraph_reference` (one full
  :func:`~repro.execution.tiling.derive_tiling` walk per tile candidate)
  and the original per-option weight-selection/energy computation.
  ``tests/cost/test_fast_equivalence.py`` compares these against the
  fast pipeline on randomized graphs, partitions, and memory configs.
* :class:`ReferenceEvaluator` — a drop-in :class:`~repro.cost.evaluator.
  Evaluator` that reproduces the *pre-single-pass pipeline's* behaviour
  (LRU caches included, but naive profiling, full pricing on repair
  probes, and a complete :class:`~repro.cost.evaluator.PartitionCost`
  per genome). ``benchmarks/bench_evaluator.py`` measures the fast
  pipeline's speedup against it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Iterable, Sequence

from ..config import AcceleratorConfig, BufferMode, MemoryConfig
from ..graphs.graph import ComputationGraph
from ..multicore.crossbar import crossbar_cycles, crossbar_energy_pj
from ..multicore.weight_sharing import shard_weights
from .bandwidth import bandwidth_report
from .ema import (
    DEFAULT_TILE_CANDIDATES,
    SubgraphProfile,
    cached_weight_selection,
    profile_subgraph_reference,
)
from .energy import subgraph_energy
from .evaluator import (
    Evaluator,
    PartitionCost,
    PartitionSummary,
    SubgraphCost,
)
from .latency import compute_cycles, dram_cycles
from .store import STORE_SIZE, _lru_get, _lru_put


def price_subgraph_reference(
    accel: AcceleratorConfig,
    profile: SubgraphProfile,
    memory: MemoryConfig,
    batch: int = 1,
) -> SubgraphCost:
    """Original tile-option pricing loop, nothing hoisted or cached.

    Prices ``accel.num_cores`` cores running ``batch`` samples: per-core
    activation shares, sharded weight caching with crossbar rotation,
    and batch-scaled traffic (see :mod:`repro.cost.evaluator`).
    """
    cores = accel.num_cores
    shard = shard_weights(profile.weight_bytes, cores)
    best: SubgraphCost | None = None
    for option in profile.tile_options:
        per_core_act = -(-option.activation_bytes // cores)
        if memory.mode is BufferMode.SEPARATE:
            if per_core_act > memory.global_buffer_bytes:
                continue
            per_core_budget = memory.weight_buffer_bytes
        else:
            per_core_budget = memory.shared_buffer_bytes - per_core_act
            if per_core_budget < 0:
                continue
        # Sharding multiplies the effective cache: each core holds 1/C.
        cached_nodes, cached_bytes = cached_weight_selection(
            profile.layer_weights, per_core_budget * cores
        )
        uncached = profile.weight_bytes - cached_bytes
        weight_ema = cached_bytes + uncached * option.num_elementary_ops * batch
        ema = weight_ema + profile.io_bytes * batch
        if best is not None and ema > best.ema_bytes:
            continue
        if (
            best is not None
            and ema == best.ema_bytes
            and option.tile_rows <= best.tile_rows
        ):
            continue
        rotation = shard.rotation_bytes_per_sample * batch
        energy = subgraph_energy(
            accel,
            memory,
            ema_bytes=ema,
            activation_traffic_bytes=2
            * (profile.input_bytes + profile.member_activation_bytes)
            * batch,
            weight_write_bytes=weight_ema,
            weight_read_bytes=profile.weight_bytes
            * option.num_elementary_ops
            * batch,
            macs=profile.macs * batch,
        )
        energy = replace(energy, crossbar_pj=crossbar_energy_pj(accel, rotation))
        compute = compute_cycles(accel, profile.macs * batch) / cores
        best = SubgraphCost(
            profile=profile,
            feasible=True,
            tile_rows=option.tile_rows,
            num_elementary_ops=option.num_elementary_ops,
            cached_weight_nodes=cached_nodes,
            cached_weight_bytes=cached_bytes,
            weight_ema_bytes=weight_ema,
            ema_bytes=ema,
            energy=energy,
            compute_cycles=compute,
            latency_cycles=max(
                compute,
                dram_cycles(accel, ema) / cores,
                crossbar_cycles(accel, rotation),
            ),
        )
    if best is not None:
        return best
    return SubgraphCost(
        profile=profile,
        feasible=False,
        tile_rows=0,
        num_elementary_ops=0,
        cached_weight_nodes=(),
        cached_weight_bytes=0,
        weight_ema_bytes=0,
        ema_bytes=int(1e18),
        energy=None,
        compute_cycles=compute_cycles(accel, profile.macs * batch) / cores,
        latency_cycles=float("inf"),
    )


def evaluate_partition_reference(
    graph: ComputationGraph,
    accel: AcceleratorConfig,
    subgraph_sets: Sequence[frozenset[str]],
    memory: MemoryConfig | None = None,
    tile_candidates: tuple[int, ...] = DEFAULT_TILE_CANDIDATES,
    batch: int = 1,
) -> PartitionCost:
    """Cache-free partition pricing with the original generator sums."""
    memory = memory or accel.memory
    costs = [
        price_subgraph_reference(
            accel,
            profile_subgraph_reference(
                graph,
                members,
                bytes_per_element=accel.bytes_per_element,
                tile_candidates=tile_candidates,
            ),
            memory,
            batch,
        )
        for members in subgraph_sets
    ]
    feasible = all(c.feasible for c in costs)
    frequency = accel.frequency_hz
    bandwidth = bandwidth_report(
        io_bytes=[c.profile.io_bytes for c in costs],
        weight_bytes=[c.profile.weight_bytes for c in costs],
        weight_ema_bytes=[c.weight_ema_bytes for c in costs],
        compute_seconds=[c.compute_cycles / frequency for c in costs],
    )
    return PartitionCost(
        feasible=feasible,
        num_subgraphs=len(costs),
        ema_bytes=float(sum(c.ema_bytes for c in costs)),
        energy_pj=sum(c.energy_pj for c in costs),
        latency_cycles=sum(c.latency_cycles for c in costs),
        bandwidth=bandwidth,
        subgraphs=tuple(costs),
    )


class ReferenceEvaluator(Evaluator):
    """Pre-single-pass pipeline behaviour behind the Evaluator interface.

    Profiles are derived naively (one tiling walk per tile candidate),
    pricing runs the original un-hoisted loop, repair probes pay for full
    pricing, and every partition evaluation assembles the complete
    :class:`PartitionCost` including the bandwidth report. Results are
    bit-identical to :class:`Evaluator`; only the work per call differs.

    Its profiles are its own: it never reads the graph's shared
    :class:`~repro.cost.store.SubgraphStore`, so a fast evaluator that
    warmed the store cannot leak its profiles into the oracle.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._facts = None
        self._profiles: OrderedDict[frozenset[str], SubgraphProfile] = OrderedDict()

    def profile(self, members: Iterable[str]) -> SubgraphProfile:
        key = frozenset(members)
        hit = _lru_get(self._profiles, key)
        if hit is not None:
            return hit
        self.num_profile_calls += 1
        profile = profile_subgraph_reference(
            self.graph,
            key,
            bytes_per_element=self.accel.bytes_per_element,
            tile_candidates=self.tile_candidates,
        )
        _lru_put(self._profiles, key, profile, STORE_SIZE)
        return profile

    def min_footprint(self, members: Iterable[str]) -> int:
        return self.profile(members).min_activation_bytes

    def _price(self, profile: SubgraphProfile, memory: MemoryConfig) -> SubgraphCost:
        return price_subgraph_reference(self.accel, profile, memory, self.batch)

    def feasible(
        self, members: Iterable[str], memory: MemoryConfig | None = None
    ) -> bool:
        # Pre-PR repair probes priced the candidate in full.
        return self.subgraph_cost(members, memory).feasible

    def summarize(
        self,
        subgraph_sets: Sequence[frozenset[str]],
        memory: MemoryConfig | None = None,
    ) -> PartitionSummary:
        # Pre-PR genome evaluation always built the full PartitionCost.
        cost = self.evaluate(subgraph_sets, memory)
        return PartitionSummary(
            feasible=cost.feasible,
            num_subgraphs=cost.num_subgraphs,
            ema_bytes=cost.ema_bytes,
            energy_pj=cost.energy_pj,
            latency_cycles=cost.latency_cycles,
        )

    def prime_summaries(
        self,
        populations: Sequence[Sequence[frozenset[str]]],
        memories: MemoryConfig | Sequence[MemoryConfig] | None = None,
    ) -> int:
        # No priming: this summarize builds the full PartitionCost of
        # every genome and never reads the summary cache.
        return 0
