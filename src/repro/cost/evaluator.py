"""The evaluation environment: partition + memory config -> cost.

This is the reproduction of the paper's "modified simulator that supports
the evaluation of latency and energy" (Sec 5.1.2), restructured as a
layered, throughput-oriented pipeline:

1. :meth:`Evaluator.profile` — memory-*independent* subgraph profiles
   (tile options, footprints, MAC/weight/IO byte counts), produced by the
   single-pass :func:`~repro.cost.ema.profile_subgraph` over the graph's
   precomputed constant columns: one
   :class:`~repro.execution.tiling.TilingStructure` derivation prices all
   tile candidates, and a shape class with a closed form
   (:class:`~repro.execution.tiling_batch.LinearTileModel`) takes its
   option table from two dot products instead. These facts live *per
   graph*, in ``graph.subgraph_store()`` (:mod:`repro.cost.store`): every
   evaluator of the graph in the process shares its tiling structures,
   and its profiles and finest-tile footprints at the same element width
   and tile candidates.
2. :meth:`Evaluator._price` — memory-*dependent* pricing of one profile,
   the one pricing path every key takes: the tile options are ranked on
   EMA alone (weight caching included, the greedy selection run once per
   distinct budget), and only the winner is priced in energy and
   latency, by the kernel. :meth:`Evaluator.subgraph_cost` caches the
   full :class:`SubgraphCost`; the search loops only keep its summary.
3. :meth:`Evaluator.evaluate` / :meth:`Evaluator.summarize` — partition
   aggregation. ``evaluate`` builds the full :class:`PartitionCost`
   (bandwidth report included); ``summarize`` is the incremental path the
   search loops use: per-subgraph scalar aggregates are cached, so a
   child genome that shares most cut points with its parents re-prices
   only the subgraphs that differ, and the partition total is a running
   sum over cached scalars. :meth:`Evaluator.prime_summaries` prices a
   whole genome batch's unseen keys up front, in the order ``summarize``
   would, and :meth:`Evaluator.feasible` answers the in-situ repair probe
   from the profile's minimum footprint without pricing at all.

What depends on memory, cores or batch lives *per evaluator*: the
subgraph costs, the summary scalars and the energy rates, in LRUs of
:data:`COST_CACHE_SIZE` entries. Every fast path is bit-identical to the
retained reference pipeline in :mod:`repro.cost.reference` (enforced by
``tests/cost/``), whose evaluator keeps private caches and never reads
the store. :meth:`Evaluator.stats` counts this evaluator's own work, so
its ``profile_calls`` and ``direct_profiles`` are lower when another
evaluator of the graph already derived what it asks for.

Every path prices ``accel.num_cores`` cores running ``batch`` samples
(Sec 5.4.2-5.4.3; one core and one sample by default) through one fit
rule, :func:`weight_budget`, and one pricing kernel,
:meth:`Evaluator._tile_cost`. Capacities in a :class:`MemoryConfig` are
*per core* (Table 3's "size in each core"):

* each core holds ``⌈act / C⌉`` of a tile's activations;
* weights are sharded, each core caching ``1/C`` of them, so the cores
  together cache ``C`` budgets' worth; a shard visits every core once
  per sample, rotating ``W·(C−1)`` bytes per sample over the crossbar;
* samples run back to back, reusing cached weights: activation traffic,
  uncached weight re-streams, MACs and rotation scale with the batch,
  one-time weight loads do not;
* compute and DRAM time split over the cores (per-core DRAM links
  aggregate), and the crossbar time bounds latency too.

Setting ``collect_timings=True`` accumulates per-stage wall-clock
(``profile`` / ``price`` / ``aggregate``) into :attr:`Evaluator.timings`
for the CLI's ``--profile-timings`` report.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..config import AcceleratorConfig, BufferMode, MemoryConfig
from ..errors import ConfigError
from ..execution.tiling_batch import linear_model
from ..graphs.graph import ComputationGraph
from ..multicore.crossbar import crossbar_cycles, crossbar_energy_pj
from ..obs import span
from .bandwidth import BandwidthReport, bandwidth_report
from .ema import (
    DEFAULT_TILE_CANDIDATES,
    SubgraphProfile,
    cached_weight_selection,
    profile_subgraph,
)
from .energy import EnergyBreakdown, EnergyRates
from .latency import dram_bytes_per_cycle, effective_macs_per_cycle
from .store import _lru_get, _lru_put

#: Entries each per-evaluator LRU (subgraph costs, summary scalars) keeps.
COST_CACHE_SIZE = 200_000


@dataclass(frozen=True)
class SubgraphCost:
    """Cost of executing one subgraph under one memory configuration."""

    profile: SubgraphProfile
    feasible: bool
    tile_rows: int
    num_elementary_ops: int
    cached_weight_nodes: tuple[str, ...]
    cached_weight_bytes: int
    weight_ema_bytes: int
    ema_bytes: int
    energy: EnergyBreakdown | None
    compute_cycles: float
    latency_cycles: float

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj if self.energy is not None else float("inf")

    @property
    def summary(self) -> tuple:
        """The scalars :meth:`Evaluator.summarize` sums."""
        return (self.feasible, self.ema_bytes, self.energy_pj, self.latency_cycles)


@dataclass(frozen=True)
class PartitionCost:
    """Aggregate cost of a whole partition schedule."""

    feasible: bool
    num_subgraphs: int
    ema_bytes: float
    energy_pj: float
    latency_cycles: float
    bandwidth: BandwidthReport
    subgraphs: tuple[SubgraphCost, ...]


@dataclass(frozen=True)
class PartitionSummary:
    """The scalar aggregates the search objectives actually read.

    A :class:`PartitionCost` without the bandwidth report and the
    per-subgraph cost tuple: cheap to assemble from cached per-subgraph
    scalars on every genome evaluation. Field values are bit-identical
    to the corresponding :class:`PartitionCost` fields.
    """

    feasible: bool
    num_subgraphs: int
    ema_bytes: float
    energy_pj: float
    latency_cycles: float


def weight_budget(memory: MemoryConfig, cores: int, act: int) -> int | None:
    """Weight bytes ``cores`` cores cache beside a tile of ``act``
    activation bytes, or ``None`` when one core's share does not fit
    (the fit rule: each core holds ``⌈act/C⌉`` and caches its weight
    shard in the weight buffer, or in what a shared buffer leaves)."""
    share = -(-act // cores)
    if memory.mode is BufferMode.SEPARATE:
        if share > memory.global_buffer_bytes:
            return None
        return memory.weight_buffer_bytes * cores
    room = memory.shared_buffer_bytes - share
    return room * cores if room >= 0 else None


def _weight_ema(weight_bytes: int, cached_bytes: int, streams: int) -> int:
    """Cached weights load once; uncached ones re-stream ``streams`` times."""
    return cached_bytes + (weight_bytes - cached_bytes) * streams


def _memory_key(memory: MemoryConfig) -> tuple:
    if memory.mode is BufferMode.SHARED:
        return ("shared", memory.shared_buffer_bytes)
    return ("separate", memory.global_buffer_bytes, memory.weight_buffer_bytes)


class Evaluator:
    """Prices subgraphs and partitions of one graph on one accelerator.

    ``accel.num_cores`` cores process ``batch`` samples per subgraph.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        accel: AcceleratorConfig | None = None,
        batch: int = 1,
        tile_candidates: tuple[int, ...] = DEFAULT_TILE_CANDIDATES,
        collect_timings: bool = False,
    ) -> None:
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")
        self.graph = graph
        self.accel = accel or AcceleratorConfig()
        self.batch = batch
        self.tile_candidates = tile_candidates
        # Memory-independent facts (structures, profiles, minimum
        # footprints) live in the graph's store, shared with every other
        # evaluator of the graph at this element width and candidates.
        self._facts = graph.subgraph_store().facts(
            self.accel.bytes_per_element, tile_candidates
        )
        self._costs: OrderedDict[tuple, SubgraphCost] = OrderedDict()
        # This evaluator's own work: a warm store lowers these counts.
        self.num_profile_calls = 0
        self.num_direct_profiles = 0
        self.num_cost_calls = 0
        # Priming telemetry (reported through stats).
        self.num_batch_calls = 0
        self.num_batch_priced = 0
        self.num_batch_hits = 0
        # Per-(memory, accel) energy rates, hoisted out of _tile_cost.
        self._rates: dict[tuple, EnergyRates] = {}
        # Per-subgraph scalar aggregates for the incremental summarize
        # path (a true LRU: hits refresh recency).
        self._summaries: OrderedDict[tuple, tuple] = OrderedDict()
        self.collect_timings = collect_timings
        self.timings: dict[str, float] = {
            "profile_s": 0.0,
            "price_s": 0.0,
            "aggregate_s": 0.0,
        }

    # ------------------------------------------------------------------
    def profile(self, members: Iterable[str]) -> SubgraphProfile:
        """Memory-independent profile of a subgraph (cached per graph)."""
        key = frozenset(members)
        facts = self._facts
        hit = _lru_get(facts.profiles, key)
        if hit is not None:
            return hit
        self.num_profile_calls += 1
        started = time.perf_counter() if self.collect_timings else 0.0
        structure = facts.store.structure(key)
        profile = profile_subgraph(
            self.graph,
            key,
            bytes_per_element=self.accel.bytes_per_element,
            tile_candidates=self.tile_candidates,
            structure=structure,
        )
        if linear_model(structure, self.tile_candidates) is not None:
            self.num_direct_profiles += 1
        if self.collect_timings:
            self.timings["profile_s"] += time.perf_counter() - started
        facts.add_profile(key, profile)
        return profile

    def min_footprint(self, members: Iterable[str]) -> int:
        """Cheapest activation footprint (finest tile only, cached).

        Enumeration pruning probes vast numbers of candidate sets; this
        derives a single finest-grained tiling instead of the full
        tile-option profile.
        """
        key = frozenset(members)
        facts = self._facts
        profile = _lru_get(facts.profiles, key)
        if profile is not None:
            return profile.min_activation_bytes
        value = _lru_get(facts.min_footprints, key)
        if value is None:
            structure = facts.store.structure(key)
            arrays = self.graph.arrays(self.accel.bytes_per_element)
            value, _ = structure.option(1, arrays.local_row_bytes(structure.ids))
            facts.add_min_footprint(key, value)
        return value

    def feasible(
        self, members: Iterable[str], memory: MemoryConfig | None = None
    ) -> bool:
        """Whether any tile option of the subgraph fits ``memory``.

        Equivalent to ``subgraph_cost(members, memory).feasible`` — a
        subgraph is feasible exactly when its smallest tile option's
        per-core activation share fits the activation capacity — but
        answered from the profile's ``min_activation_bytes`` without
        pricing. In-situ capacity repair probes every subgraph of every
        child; nearly every probed set is priced later, and the profile
        the probe derives is the one that pricing reads.
        """
        memory = memory or self.accel.memory
        min_act = self.profile(members).min_activation_bytes
        return weight_budget(memory, self.accel.num_cores, min_act) is not None

    # ------------------------------------------------------------------
    def subgraph_cost(
        self, members: Iterable[str], memory: MemoryConfig | None = None
    ) -> SubgraphCost:
        """Price one subgraph under ``memory`` (cached)."""
        memory = memory or self.accel.memory
        key = (frozenset(members), _memory_key(memory))
        hit = _lru_get(self._costs, key)
        if hit is not None:
            return hit
        cost = self._priced(key[0], memory)
        _lru_put(self._costs, key, cost, COST_CACHE_SIZE)
        return cost

    def _priced(self, members: frozenset[str], memory: MemoryConfig) -> SubgraphCost:
        """Price one uncached key; the ``_price`` call bills ``price_s``."""
        profile = self.profile(members)
        self.num_cost_calls += 1
        if not self.collect_timings:
            return self._price(profile, memory)
        started = time.perf_counter()
        cost = self._price(profile, memory)
        self.timings["price_s"] += time.perf_counter() - started
        return cost

    def _energy_rates(self, memory: MemoryConfig) -> EnergyRates:
        key = _memory_key(memory)
        rates = self._rates.get(key)
        if rates is None:
            rates = EnergyRates.for_memory(self.accel, memory)
            self._rates[key] = rates
        return rates

    def _price(self, profile: SubgraphProfile, memory: MemoryConfig) -> SubgraphCost:
        cores = self.accel.num_cores
        weight_bytes = profile.weight_bytes
        winner = selected_for = None
        chosen = ((), 0)
        for option in profile.tile_options:
            budget = weight_budget(memory, cores, option.activation_bytes)
            if budget is None:
                continue
            # Separate buffers give every tile the same budget, so the
            # greedy selection runs once, not per option.
            if budget != selected_for:
                selection = cached_weight_selection(profile.layer_weights, budget)
                selected_for = budget
            # Every option moves the same IO bytes, so weight EMA ranks
            # them as EMA does; ties go to the larger tile.
            ops = option.num_elementary_ops
            weight_ema = _weight_ema(weight_bytes, selection[1], ops * self.batch)
            rank = (weight_ema, -option.tile_rows)
            if winner is None or rank < best:
                best, winner, chosen = rank, option, selection
        num_ops = winner.num_elementary_ops if winner else 0
        cached_nodes, cached_bytes = chosen
        weight_ema, ema, energy, compute, latency = self._tile_cost(
            memory,
            weight_bytes,
            profile.macs,
            profile.io_bytes,
            profile.input_bytes + profile.member_activation_bytes,
            num_ops,
            cached_bytes,
        )
        if winner is None:
            # No tile fits; the bandwidth report still reads the compute.
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
                compute_cycles=compute,
                latency_cycles=float("inf"),
            )
        return SubgraphCost(
            profile=profile,
            feasible=True,
            tile_rows=winner.tile_rows,
            num_elementary_ops=num_ops,
            cached_weight_nodes=cached_nodes,
            cached_weight_bytes=cached_bytes,
            weight_ema_bytes=weight_ema,
            ema_bytes=ema,
            energy=energy,
            compute_cycles=compute,
            latency_cycles=latency,
        )

    def _tile_cost(
        self,
        memory: MemoryConfig,
        weight_bytes: int,
        macs: int,
        io_bytes: int,
        buffered_bytes: int,
        num_ops: int,
        cached_bytes: int,
    ) -> tuple[int, int, EnergyBreakdown, float, float]:
        """``(weight_ema_bytes, ema_bytes, energy, compute_cycles,
        latency_cycles)`` of one tile choice (the pricing kernel), from
        the subgraph's totals (``buffered_bytes``: inputs plus member
        outputs), the tile's elementary-op count and the cached bytes."""
        accel = self.accel
        cores = accel.num_cores
        batch = self.batch
        streams = num_ops * batch
        weight_ema = _weight_ema(weight_bytes, cached_bytes, streams)
        ema = weight_ema + io_bytes * batch
        rotation = weight_bytes * (cores - 1) * batch
        energy = self._energy_rates(memory).breakdown(
            ema_bytes=ema,
            activation_traffic_bytes=2 * buffered_bytes * batch,
            weight_write_bytes=weight_ema,
            weight_read_bytes=weight_bytes * streams,
            macs=macs * batch,
            crossbar_pj=crossbar_energy_pj(accel, rotation),
        )
        compute = macs * batch / effective_macs_per_cycle(accel) / cores
        latency = max(
            compute,
            ema / dram_bytes_per_cycle(accel) / cores,
            crossbar_cycles(accel, rotation),
        )
        return weight_ema, ema, energy, compute, latency

    # ------------------------------------------------------------------
    def trace(
        self,
        members: Iterable[str],
        memory: MemoryConfig | None = None,
        tile_width: int | None = None,
        max_ops: int | None = None,
    ):
        """Execute one subgraph with this evaluator's own pricing choices.

        Replays the memory behaviour using the tile size and
        weight-caching selection :meth:`subgraph_cost` chose, at the
        accelerator's ``bytes_per_element`` — one source of truth for
        the element width, so the trace and the analytic cost can never
        silently disagree on units. Returns a
        :class:`~repro.memory.trace.SubgraphTrace`. It replays one core
        and one sample, so more of either raises :class:`ConfigError`.
        """
        from ..errors import CapacityError
        from ..memory.trace import trace_subgraph

        if self.accel.num_cores > 1 or self.batch > 1:
            raise ConfigError(
                "the memory trace replays one core and one sample; got "
                f"{self.accel.num_cores} cores and batch {self.batch}"
            )
        members = frozenset(members)  # may be a one-shot iterable
        memory = memory or self.accel.memory
        cost = self.subgraph_cost(members, memory)
        if not cost.feasible:
            raise CapacityError(
                "cannot trace an infeasible subgraph (no tile option fits)"
            )
        return trace_subgraph(
            self.graph,
            members,
            output_tile_rows=cost.tile_rows,
            cached_weight_nodes=cost.cached_weight_nodes,
            bytes_per_element=self.accel.bytes_per_element,
            tile_width=tile_width,
            max_ops=max_ops,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        subgraph_sets: Sequence[frozenset[str]],
        memory: MemoryConfig | None = None,
    ) -> PartitionCost:
        """Price a whole partition, given its subgraphs in schedule order."""
        memory = memory or self.accel.memory
        costs = [self.subgraph_cost(members, memory) for members in subgraph_sets]
        started = time.perf_counter() if self.collect_timings else 0.0
        feasible = True
        ema_total = 0
        energy_total = 0.0
        latency_total = 0.0
        io_bytes: list[int] = []
        weight_bytes: list[int] = []
        weight_ema_bytes: list[int] = []
        compute_seconds: list[float] = []
        frequency = self.accel.frequency_hz
        for cost in costs:
            feasible = feasible and cost.feasible
            ema_total += cost.ema_bytes
            energy_total += cost.energy_pj
            latency_total += cost.latency_cycles
            io_bytes.append(cost.profile.io_bytes)
            weight_bytes.append(cost.profile.weight_bytes)
            weight_ema_bytes.append(cost.weight_ema_bytes)
            compute_seconds.append(cost.compute_cycles / frequency)
        bandwidth = bandwidth_report(
            io_bytes=io_bytes,
            weight_bytes=weight_bytes,
            weight_ema_bytes=weight_ema_bytes,
            compute_seconds=compute_seconds,
        )
        result = PartitionCost(
            feasible=feasible,
            num_subgraphs=len(costs),
            ema_bytes=float(ema_total),
            energy_pj=energy_total,
            latency_cycles=latency_total,
            bandwidth=bandwidth,
            subgraphs=tuple(costs),
        )
        if self.collect_timings:
            self.timings["aggregate_s"] += time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Incremental (delta) evaluation: per-subgraph scalar aggregates.
    # ------------------------------------------------------------------
    def _subgraph_summary(
        self, members: frozenset[str], memory: MemoryConfig, mem_key: tuple
    ) -> tuple:
        key = (members, mem_key)
        hit = _lru_get(self._summaries, key)
        if hit is not None:
            return hit
        summary = self._priced(members, memory).summary
        _lru_put(self._summaries, key, summary, COST_CACHE_SIZE)
        return summary

    def summarize(
        self,
        subgraph_sets: Sequence[frozenset[str]],
        memory: MemoryConfig | None = None,
    ) -> PartitionSummary:
        """Scalar partition aggregates for the search loops (incremental).

        Per-subgraph scalars are cached, so pricing work is proportional
        to the subgraphs *not seen before* under this memory
        configuration — for GA offspring, the few cut points that differ
        from the parents. The sums run in schedule order, making every
        field bit-identical to :meth:`evaluate`'s.
        """
        memory = memory or self.accel.memory
        mem_key = _memory_key(memory)
        timed = self.collect_timings
        if timed:
            # Cold subgraphs profile and price inside this window; count
            # only the aggregation itself (buckets stay exclusive).
            started = time.perf_counter()
            nested_before = (
                self.timings["profile_s"] + self.timings["price_s"]
            )
        feasible = True
        ema_total = 0
        energy_total = 0.0
        latency_total = 0.0
        for members in subgraph_sets:
            ok, ema, energy_pj, latency = self._subgraph_summary(
                members, memory, mem_key
            )
            feasible = feasible and ok
            ema_total += ema
            energy_total += energy_pj
            latency_total += latency
        result = PartitionSummary(
            feasible=feasible,
            num_subgraphs=len(subgraph_sets),
            ema_bytes=float(ema_total),
            energy_pj=energy_total,
            latency_cycles=latency_total,
        )
        if timed:
            elapsed = time.perf_counter() - started
            nested = (
                self.timings["profile_s"] + self.timings["price_s"]
            ) - nested_before
            self.timings["aggregate_s"] += elapsed - nested
        return result

    def prime_summaries(
        self,
        populations: Sequence[Sequence[frozenset[str]]],
        memories: "MemoryConfig | Sequence[MemoryConfig] | None" = None,
    ) -> int:
        """Price every unseen subgraph key of a batch of partitions.

        ``memories`` is one memory per partition, or one for all (the
        accelerator's by default). The distinct ``(subgraph, memory)``
        keys not in the summary cache yet are priced in first-seen order,
        the order a serial sweep of :meth:`summarize` would price them
        in, inside one ``evaluator.batch`` span; the ``summarize`` calls
        that follow are pure cache reads. Returns the number of keys
        priced.
        """
        if memories is None:
            memories = self.accel.memory
        if isinstance(memories, MemoryConfig):
            memories = [memories] * len(populations)
        order: list[tuple[frozenset[str], MemoryConfig, tuple]] = []
        seen: set[tuple] = set()
        summaries = self._summaries
        for subgraph_sets, memory in zip(populations, memories):
            mem_key = _memory_key(memory)
            for members in subgraph_sets:
                key = (members, mem_key)
                if key in seen:
                    continue
                seen.add(key)
                if key in summaries:
                    self.num_batch_hits += 1
                    continue
                order.append((members, memory, mem_key))
        if not order:
            return 0
        self.num_batch_calls += 1
        profiles = self._facts.profiles
        cold = sum(members not in profiles for members, _, _ in order)
        with span("evaluator.batch", keys=len(order), cold=cold):
            for members, memory, mem_key in order:
                self._subgraph_summary(members, memory, mem_key)
        self.num_batch_priced += len(order)
        return len(order)

    # ------------------------------------------------------------------
    # Summary persistence (the registry's warm files).
    # ------------------------------------------------------------------
    def absorb_summaries(self, entries: Iterable[tuple[tuple, tuple]]) -> None:
        """Install subgraph summaries computed elsewhere (idempotent).

        Evaluation is pure, so an imported summary is exactly what this
        evaluator would have computed; absorbing skips the re-pricing.
        """
        summaries = self._summaries
        for key, summary in entries:
            if key not in summaries:
                _lru_put(summaries, key, summary, COST_CACHE_SIZE)

    def export_summaries(self) -> list[tuple[tuple, tuple]]:
        """Every cached subgraph summary, oldest first (for persistence)."""
        return list(self._summaries.items())

    def stats(self) -> dict[str, float]:
        """This evaluator's own work counters, plus the stage timings
        when collected. Derivations another evaluator of the graph left
        in the shared store are not counted again."""
        out: dict[str, float] = {
            "profile_calls": self.num_profile_calls,
            "direct_profiles": self.num_direct_profiles,
            "cost_calls": self.num_cost_calls,
            "batch_calls": self.num_batch_calls,
            "batch_priced": self.num_batch_priced,
            "batch_hits": self.num_batch_hits,
        }
        if self.collect_timings:
            out.update(self.timings)
        return out
