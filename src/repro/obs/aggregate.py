"""Fold a campaign's durable artifacts into one coherent view.

The emission side (:mod:`repro.obs.events`) scatters telemetry across
the registry: every cell directory accumulates its own
``telemetry.jsonl`` beside ``history.jsonl``, leases carry worker
progress enrichments, and the budget scheduler's verdict is a pure
function of the registry bytes. This module is the matching reader: it
walks a campaign matrix against its registry and folds all of that —
including streams whose writer is *currently mid-crash* with a torn
final line — into a :class:`CampaignView` that the dashboard
(:mod:`repro.obs.dash`), the metrics exporter
(:mod:`repro.obs.metrics`), and ``repro suite --status --format json``
all share.

Reading is strictly passive: no lock is taken, no file is written, and
a view built while workers are racing is simply a consistent-enough
snapshot (each stream is internally consistent because writers append
whole lines).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..runs.registry import RunRegistry, iter_jsonl_text
from ..viz.campaign import CellStatus, campaign_snapshot
from .events import TELEMETRY_FILENAME, Clock


@dataclass(frozen=True)
class SeriesPoint:
    """One streamed progress marker of a cell's search."""

    #: Monotonic position: generation (GA/NSGA), step (SA), or tick
    #: (islands / two-step).
    progress: int
    evaluations: int | None
    best_cost: float | None


@dataclass(frozen=True)
class CellSeries:
    """A cell's convergence trajectory, decoded from ``history.jsonl``."""

    cell_id: str
    points: tuple[SeriesPoint, ...]

    @property
    def best_cost(self) -> float | None:
        """Latest streamed best cost, if any point carries one."""
        for point in reversed(self.points):
            if isinstance(point.best_cost, (int, float)):
                return float(point.best_cost)
        return None

    @property
    def evaluations(self) -> int | None:
        for point in reversed(self.points):
            if isinstance(point.evaluations, int):
                return point.evaluations
        return None


def cell_series_text(cell_id: str, history_text: str | None) -> CellSeries:
    """Decode a history stream body (from any transport) into a series."""
    points = []
    for record in iter_jsonl_text(history_text):
        mark = record.get(
            "tick", record.get("generation", record.get("step"))
        )
        if not isinstance(mark, int):
            continue
        evaluations = record.get("evaluations")
        best_cost = record.get("best_cost")
        points.append(
            SeriesPoint(
                progress=mark,
                evaluations=evaluations
                if isinstance(evaluations, int)
                else None,
                best_cost=float(best_cost)
                if isinstance(best_cost, (int, float))
                else None,
            )
        )
    return CellSeries(cell_id=cell_id, points=tuple(points))


@dataclass(frozen=True)
class WorkerHealth:
    """One worker's fleet-view row, derived from its lease enrichments."""

    owner: str
    #: Cells currently leased to this owner (live or expired).
    cells: tuple[str, ...]
    #: Freshest heartbeat age across the owner's leases, seconds.
    heartbeat_age: float | None
    #: True when every lease the owner holds has expired — the worker is
    #: presumed dead and its cells are steal candidates.
    stalled: bool
    #: True when the coordinator reaped this owner with a non-zero exit:
    #: dead for certain, whatever its leases still say.
    dead: bool
    #: Cumulative evaluations the worker has reported via its heartbeat.
    evals_done: int | None
    #: Evaluations per second since the worker started, when derivable.
    rate: float | None


@dataclass
class TelemetryTotals:
    """Campaign-wide counters folded from every cell's telemetry stream."""

    events: int = 0
    spans: int = 0
    #: ``evaluator.batch`` span tallies: populations priced, genomes
    #: submitted, genomes that were actually cold (priced fresh).
    batch_spans: int = 0
    genomes_batched: int = 0
    genomes_cold: int = 0
    #: Lease protocol counters.
    claims: int = 0
    steals: int = 0
    releases: int = 0
    #: Budget scheduler counters.
    grants: int = 0
    cells_started: int = 0
    cells_finished: int = 0
    cells_errored: int = 0
    #: The coordinator's ``fleet.scale`` events at the registry root:
    #: workers spawned against queue depth, and spawned workers seen
    #: retiring idle (exit 0) or dying (any other exit).
    fleet_spawned: int = 0
    fleet_retired: int = 0
    fleet_died: int = 0
    #: Ids of the spawned workers the ``died`` events name.
    dead_workers: set[str] = field(default_factory=set)
    #: Summed ``Evaluator.stats()`` counters from finished cells.
    evaluator_stats: dict[str, float] = field(default_factory=dict)

    @property
    def batch_hit_rate(self) -> float | None:
        """Share of batched genomes served warm (cached/identical)."""
        if not self.genomes_batched:
            return None
        return 1.0 - self.genomes_cold / self.genomes_batched

    def fold(self, record: dict) -> None:
        """Fold one telemetry record into the totals."""
        self.events += 1
        kind = record.get("kind")
        if kind == "span":
            self.spans += 1
            if record.get("name") == "evaluator.batch":
                self.batch_spans += 1
                keys = record.get("keys")
                cold = record.get("cold")
                if isinstance(keys, int):
                    self.genomes_batched += keys
                if isinstance(cold, int):
                    self.genomes_cold += cold
        elif kind == "lease.claim":
            self.claims += 1
            if record.get("via") == "stolen":
                self.steals += 1
        elif kind == "lease.release":
            self.releases += 1
        elif kind == "budget.grant":
            self.grants += 1
        elif kind == "cell.start":
            self.cells_started += 1
        elif kind == "cell.finish":
            self.cells_finished += 1
        elif kind == "cell.error":
            self.cells_errored += 1
        elif kind == "fleet.scale":
            action = record.get("action")
            count = record.get("count")
            count = count if isinstance(count, int) else 1
            if action == "spawn":
                self.fleet_spawned += count
            elif action == "retire":
                self.fleet_retired += count
            elif action == "died":
                self.fleet_died += count
                workers = record.get("workers")
                if isinstance(workers, list):
                    self.dead_workers.update(
                        w for w in workers if isinstance(w, str)
                    )
        elif kind == "evaluator.stats":
            stats = record.get("stats")
            if isinstance(stats, dict):
                for key, value in stats.items():
                    if isinstance(value, (int, float)):
                        self.evaluator_stats[key] = (
                            self.evaluator_stats.get(key, 0.0) + value
                        )


@dataclass(frozen=True)
class CampaignView:
    """Everything the dashboard and metrics exporter need, in one probe."""

    statuses: tuple[CellStatus, ...]
    series: dict[str, CellSeries]
    workers: tuple[WorkerHealth, ...]
    telemetry: TelemetryTotals
    budget: int | None
    #: Evaluations durably spent across the campaign (checkpoint or
    #: result counts — the same numbers the budget scheduler replays).
    spent: int
    #: Samples returned to the grant pool by terminal cells that used
    #: less than their allocation (budgeted campaigns only).
    refunded: int
    out_of_budget: bool

    @property
    def tally(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for status in self.statuses:
            counts[status.state] = counts.get(status.state, 0) + 1
        return counts

    @property
    def best_cost(self) -> float | None:
        """Best cost across every cell that has reported one."""
        costs = [
            s.best_cost
            for s in self.statuses
            if isinstance(s.best_cost, (int, float))
        ]
        return min(costs) if costs else None


def _worker_health(
    statuses: list[CellStatus], clock: Clock, dead: set[str]
) -> tuple[WorkerHealth, ...]:
    by_owner: dict[str, list[CellStatus]] = {}
    for status in statuses:
        if status.owner:
            by_owner.setdefault(status.owner, []).append(status)
    now = clock()
    fleet = []
    for owner in sorted(by_owner):
        held = by_owner[owner]
        ages = [
            s.heartbeat_age for s in held if s.heartbeat_age is not None
        ]
        evals = [s.worker_evals for s in held if s.worker_evals is not None]
        starts = [
            s.worker_started_at
            for s in held
            if s.worker_started_at is not None
        ]
        evals_done = max(evals) if evals else None
        rate = None
        if evals_done is not None and starts:
            elapsed = now - min(starts)
            if elapsed > 0:
                rate = evals_done / elapsed
        fleet.append(
            WorkerHealth(
                owner=owner,
                cells=tuple(s.cell_id for s in held),
                heartbeat_age=min(ages) if ages else None,
                stalled=all(s.state == "stalled" for s in held),
                dead=owner in dead,
                evals_done=evals_done,
                rate=rate,
            )
        )
    return tuple(fleet)


def build_view(
    matrix: Any,
    registry: RunRegistry,
    budget: int | None = None,
    clock: Clock = time.time,
) -> CampaignView:
    """Probe a campaign and fold everything into a :class:`CampaignView`.

    Works against a live registry (leases mid-renewal, histories
    mid-append) and a dead one (finished, killed, or SIGKILLed
    mid-write) alike: every stream reader skips torn tails, and lease
    or budget state simply reads as whatever the last surviving bytes
    say.
    """
    from ..distrib.budget import campaign_progress, compute_allocations

    cells = matrix.cells()
    progress = campaign_progress(registry, cells, matrix.seed)
    budget_view = (
        compute_allocations(cells, budget, progress)
        if budget is not None
        else None
    )
    statuses = campaign_snapshot(
        matrix, registry, progress, budget_view, clock=clock
    )
    spent = sum(p.evaluations for p in progress.values())
    refunded = 0
    if budget_view is not None:
        for cell in cells:
            state = progress[cell.key]
            if state.complete or state.failed:
                refunded += max(
                    0, budget_view.allocations[cell.key] - state.evaluations
                )

    series: dict[str, CellSeries] = {}
    totals = TelemetryTotals()
    for cell in cells:
        node = registry.run_node(cell.config_dict(), cell.seed(matrix.seed))
        series[cell.cell_id] = cell_series_text(
            cell.cell_id, node.read_text("history.jsonl")
        )
        for record in iter_jsonl_text(node.read_text(TELEMETRY_FILENAME)):
            totals.fold(record)
    # Campaign-level stream at the registry root: the coordinator's
    # fleet events live here, not under any one cell.
    root_node = registry.root_node()
    for record in iter_jsonl_text(root_node.read_text(TELEMETRY_FILENAME)):
        totals.fold(record)

    return CampaignView(
        statuses=tuple(statuses),
        series=series,
        workers=_worker_health(statuses, clock, totals.dead_workers),
        telemetry=totals,
        budget=budget,
        spent=spent,
        refunded=refunded,
        out_of_budget=budget_view is not None and budget_view.out_of_budget,
    )
