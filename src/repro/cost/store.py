"""One per-graph store of memory-independent subgraph facts.

A subgraph's tiling structure, its profile and its finest-tile
activation footprint depend on the graph, the member set, the element
width and the tile candidates — never on buffer sizes, cores or batch.
So every evaluator of one graph in a process (the suite cells of one
network in a pool worker, the islands of an island search, the points
of a capacity sweep) shares them through the graph's store,
``graph.subgraph_store()``, and each member set is derived once per
process instead of once per evaluator. The values are pure functions of
their keys, so sharing them cannot change a result — the argument the
process-wide closed-form models of :mod:`repro.execution.tiling_batch`
rest on.

* :class:`SubgraphStore` keeps the structures, keyed by member set.
* :class:`SubgraphFacts` keeps the profiles and finest-tile footprints
  of one element width and tile-candidate tuple, keyed by member set.

The id-indexed tables the derivations read live on the graph beside
``topology()`` and ``arrays()`` (``graph.tiling_table()``). Every map
here is an LRU bounded by :data:`STORE_SIZE` entries, so a long-lived
``repro worker`` stays bounded per network however many cells it runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from ..execution.tiling import TilingStructure
from .ema import SubgraphProfile

if TYPE_CHECKING:  # pragma: no cover
    from ..graphs.graph import ComputationGraph

#: Entries each map of a store keeps (least recently used go first).
#: On the member sets a ``suite-pool`` campaign probes, a ``randwire_a``
#: structure holds about 2.2 KB and its profile about 1.3 KB with their
#: map entries, so a graph's store stays under ~60 MB per element width
#: and candidate tuple. A campaign's cells reach a few thousand sets per
#: network. Enumeration probes up to ~126,000 distinct sets in one run,
#: but asks for a set again soon after if at all, so this bound makes it
#: re-derive few structures (at most ~16 % more builds, on RandWire).
STORE_SIZE = 16_384


def _lru_get(cache: OrderedDict, key):
    """The cached value (refreshing its recency), or ``None`` on a miss;
    no cache holds ``None``."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _lru_put(cache: OrderedDict, key, value, maxsize: int) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > maxsize:
        cache.popitem(last=False)


class SubgraphStore:
    """The memory-independent subgraph facts of one graph (shared)."""

    __slots__ = ("graph", "structures", "_facts")

    def __init__(self, graph: "ComputationGraph") -> None:
        self.graph = graph
        self.structures: OrderedDict[frozenset[str], TilingStructure] = OrderedDict()
        self._facts: dict[tuple, SubgraphFacts] = {}

    def structure(self, members: frozenset[str]) -> TilingStructure:
        """The cached tiling structure of a member set.

        Profiling and enumeration pruning share it, so each member set
        pays for one derivation in the process no matter which asks
        first.
        """
        hit = _lru_get(self.structures, members)
        if hit is None:
            hit = TilingStructure(self.graph, members)
            _lru_put(self.structures, members, hit, STORE_SIZE)
        return hit

    def facts(
        self, bytes_per_element: int, tile_candidates: tuple[int, ...]
    ) -> "SubgraphFacts":
        """The facts at one element width and tile-candidate tuple."""
        key = (bytes_per_element, tuple(tile_candidates))
        facts = self._facts.get(key)
        if facts is None:
            facts = self._facts[key] = SubgraphFacts(self)
        return facts


class SubgraphFacts:
    """Profiles and finest-tile footprints at one element width and tile
    candidates, keyed by member set.

    A profile answers every repair probe, from its
    ``min_activation_bytes``. ``min_footprints`` holds the finest-tile
    footprints enumeration pruning asks for without a profile.
    """

    __slots__ = ("store", "profiles", "min_footprints")

    def __init__(self, store: SubgraphStore) -> None:
        self.store = store
        self.profiles: OrderedDict[frozenset[str], SubgraphProfile] = OrderedDict()
        self.min_footprints: OrderedDict[frozenset[str], int] = OrderedDict()

    def add_profile(self, members: frozenset[str], profile: SubgraphProfile) -> None:
        _lru_put(self.profiles, members, profile, STORE_SIZE)

    def add_min_footprint(self, members: frozenset[str], footprint: int) -> None:
        _lru_put(self.min_footprints, members, footprint, STORE_SIZE)
