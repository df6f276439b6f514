"""Multi-core, multi-batch subgraph pricing.

Extends the single-core evaluator (Sec 5.4.2-5.4.3):

* ``num_cores`` cores split each subgraph spatially: per-core activation
  footprint and compute time shrink by the core count, the per-core
  16 GB/s DRAM links aggregate, and weights are sharded (each core caches
  ``W / C``) at the price of ``W * (C - 1)`` bytes of crossbar rotation
  per sample.
* ``batch`` samples are processed back-to-back per subgraph, reusing the
  cached weights across samples (inter-sample reuse): activation traffic,
  MACs, and rotation scale with the batch while one-time weight loads do
  not.

Capacities in the searched :class:`MemoryConfig` are *per core*, matching
Table 3's "Size denotes the shared buffer size in each core".
"""

from __future__ import annotations

from dataclasses import replace

from ..config import AcceleratorConfig, BufferMode, MemoryConfig
from ..cost.ema import SubgraphProfile, cached_weight_selection
from ..cost.energy import subgraph_energy
from ..cost.evaluator import Evaluator, SubgraphCost
from ..cost.latency import compute_cycles, dram_cycles
from ..errors import ConfigError
from ..graphs.graph import ComputationGraph
from .crossbar import crossbar_cycles, crossbar_energy_pj
from .weight_sharing import shard_weights


class MultiCoreEvaluator(Evaluator):
    """Prices subgraphs on a ``num_cores`` x ``batch`` configuration.

    Drop-in compatible with :class:`~repro.cost.evaluator.Evaluator`, so
    the same GA / SA / DSE machinery co-explores multi-core designs.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        accel: AcceleratorConfig | None = None,
        batch: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(graph, accel, **kwargs)
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self.num_cores = self.accel.num_cores

    def feasible(self, members, memory: MemoryConfig | None = None) -> bool:
        """Per-core variant of the repair fast path.

        A subgraph fits exactly when the smallest tile option's *per-core*
        activation share fits the per-core activation capacity.
        """
        memory = memory or self.accel.memory
        profile = self.profile(members)
        per_core = -(-profile.min_activation_bytes // self.num_cores)
        return per_core <= memory.activation_capacity

    def _linear_model(self, structure):
        # The batch pricer's closed-form direct solve prices one core and
        # one sample; returning no model sends every key through the
        # scan path, which prices with :meth:`_price` below.
        return None

    def _price(self, profile: SubgraphProfile, memory: MemoryConfig) -> SubgraphCost:
        cores = self.num_cores
        batch = self.batch
        accel = self.accel
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
            cache_budget = per_core_budget * cores
            cached_nodes, cached_bytes = cached_weight_selection(
                profile.layer_weights, cache_budget
            )
            uncached = profile.weight_bytes - cached_bytes
            # Cached weights load once; uncached re-stream per elementary
            # operation of every sample in the batch.
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
            energy = replace(
                energy, crossbar_pj=crossbar_energy_pj(accel, rotation)
            )
            compute = compute_cycles(accel, profile.macs * batch) / cores
            dram = dram_cycles(accel, ema) / cores
            xbar = crossbar_cycles(accel, rotation)
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
                latency_cycles=max(compute, dram, xbar),
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
