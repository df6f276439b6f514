"""Zone policy: which rules apply to which module trees.

The reproduction's invariants are not uniform across the codebase — the
*deterministic* zone (search, pricing, execution-model, and campaign
code whose outputs must be bit-identical across runs, processes, and
machines) forbids unseeded RNG, wall-clock reads, and order-dependent
filesystem scans, while the *durable* zone (the run registry and the
distributed layer, whose on-disk artifacts other processes trust)
additionally forbids non-atomic writes. Presentation code (``viz``,
``cli``, ``experiments`` timing banners) is deliberately outside both.

A :class:`Zone` maps module-tree prefixes to the rule ids active under
them; a :class:`ZonePolicy` is the ordered collection the engine
consults per module. Policies are plain data — tests build narrow ones,
and :data:`DEFAULT_POLICY` encodes the project's actual contract.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Zone:
    """One named region of the module tree and its active rules."""

    name: str
    #: Dotted module prefixes; a module is in the zone when it equals a
    #: prefix or lives under it (``repro.ga`` covers ``repro.ga.engine``).
    prefixes: tuple[str, ...]
    rules: tuple[str, ...]

    def covers(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.prefixes
        )


#: Module trees whose outputs must be bit-identical for a fixed seed:
#: the genetic/annealing/NSGA search stack, the design-space explorers,
#: the durable run/suite layer, the distributed protocol, and the cost
#: and execution models they price genomes with.
DETERMINISTIC_PACKAGES = (
    "repro.ga",
    "repro.dse",
    "repro.runs",
    "repro.distrib",
    "repro.cost",
    "repro.execution",
)

#: Module trees that write registry artifacts other processes trust.
DURABLE_PACKAGES = (
    "repro.runs",
    "repro.distrib",
)

#: Module trees where *iteration order* leaks into results: everything
#: deterministic, plus the graph/partition models feeding it and the
#: cell runner that fans a campaign's cells out.
ORDER_SENSITIVE_PACKAGES = DETERMINISTIC_PACKAGES + (
    "repro.graphs",
    "repro.partition",
    "repro.parallel",
)

#: Deep-only rule ids live in the same zone table as the per-file ones;
#: they simply match no registered rule unless the engine runs with
#: ``deep=True``, so the policy stays a single source of truth.
DEFAULT_ZONES = (
    Zone(
        name="deterministic",
        prefixes=DETERMINISTIC_PACKAGES,
        rules=("RL001", "RL002", "RL003"),
    ),
    Zone(
        name="durable",
        prefixes=DURABLE_PACKAGES,
        rules=("RL004", "RL102"),
    ),
    Zone(
        name="lease-protocol",
        prefixes=("repro.distrib",),
        rules=("RL104",),
    ),
    Zone(
        name="order-sensitive",
        prefixes=ORDER_SENSITIVE_PACKAGES,
        rules=("RL105",),
    ),
    # Telemetry emission and aggregation: a write-only side channel of
    # the deterministic zone. Events may *carry* wall-clock timestamps,
    # but only through the injectable clock idiom (``clock: Clock =
    # time.time`` parameters) — a resolved ``time.time()`` call inside
    # the tree would smuggle nondeterminism past the sink's contract,
    # so the clock and RNG rules apply here exactly as in the search
    # stack.
    Zone(
        name="observability",
        prefixes=("repro.obs",),
        rules=("RL001", "RL002", "RL003"),
    ),
)


class ZonePolicy:
    """Maps a module name to the set of rule ids active for it."""

    def __init__(self, zones: tuple[Zone, ...] = DEFAULT_ZONES):
        self.zones = tuple(zones)

    def rules_for(self, module: str) -> frozenset[str]:
        active: set[str] = set()
        for zone in self.zones:
            if zone.covers(module):
                active.update(zone.rules)
        return frozenset(active)


DEFAULT_POLICY = ZonePolicy()
