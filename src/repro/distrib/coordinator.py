"""``repro suite --distributed``: the campaign coordinator.

The coordinator owns the campaign's lifecycle but none of its work:

* it writes the ``campaign.json`` manifest into the registry root, so
  bare ``repro worker --registry DIR`` processes (on this machine or
  any machine sharing the registry — a directory or an object-store
  URI) know the matrix, scale, seed, and budget without re-typing them;
* it optionally spawns local worker processes (real OS processes via
  the ``spawn`` context — each one is exactly a ``repro worker``),
  either as a fixed fleet (``spawn_workers``) or an *elastic* one
  (``autoscale``): the fleet grows toward the number of cells that are
  actually claimable right now and shrinks as workers retire idle, with
  every scaling decision emitted as a ``fleet.scale`` telemetry event
  at the registry root;
* it watches lease/checkpoint state live, re-rendering the campaign
  status view, and sweeps expired leases so dead workers' cells free up
  even when every survivor is busy;
* when the campaign finishes and its spawned workers have exited, it
  merges every durable ``result.json`` into the final report **exactly
  as the local path does** — the merge is
  :func:`repro.runs.suite.campaign_outcome`, shared code, which is what
  makes a distributed campaign's report bit-identical to a local run's.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..errors import ConfigError, ReproError
from ..obs import TelemetrySink
from ..runs.registry import RunRegistry
from ..runs.suite import (
    SuiteMatrix,
    SuiteOutcome,
    campaign_outcome,
    matrix_from_dict,
    matrix_to_dict,
)
from .budget import (
    campaign_finished,
    campaign_progress,
    claimable_cells,
    compute_allocations,
)
from .clock import Clock
from .lease import break_expired_lease, read_lease
from .worker import worker_entry

MANIFEST = "campaign.json"


def write_manifest(
    matrix: SuiteMatrix, registry_root: str | Path, budget: int | None = None
) -> str:
    """Persist the campaign definition at the registry root.

    ``registry_root`` may be a directory or a transport URI; the
    manifest is written atomically either way. Returns the manifest
    key.
    """
    registry = RunRegistry(registry_root)
    node = registry.root_node()
    node.ensure()
    node.write_atomic(
        MANIFEST,
        json.dumps({"matrix": matrix_to_dict(matrix), "budget": budget}, indent=2),
    )
    return MANIFEST


def read_manifest(registry_root: str | Path) -> tuple[SuiteMatrix, int | None]:
    """Load the campaign definition a coordinator enqueued."""
    registry = RunRegistry(registry_root)
    text = registry.root_node().read_text(MANIFEST)
    if text is None:
        raise ConfigError(
            f"no campaign manifest at {registry.location}/{MANIFEST}; pass "
            "the matrix flags explicitly or start the coordinator first"
        )
    payload = json.loads(text)
    budget = payload.get("budget")
    return matrix_from_dict(payload["matrix"]), (
        int(budget) if budget is not None else None
    )


@dataclass
class CoordinatorConfig:
    """Knobs of one coordinator run."""

    #: Local worker processes to spawn (0: external workers only).
    spawn_workers: int = 0
    #: Lease TTL handed to spawned workers, and the expiry threshold the
    #: coordinator's own reclaim sweep applies.
    lease_ttl: float = 30.0
    poll_interval: float = 1.0
    #: Evaluation fan-out inside each spawned worker's leased cells.
    eval_workers: int | None = None
    #: Seconds between status-view renders (None: no live status).
    status_interval: float | None = None
    #: Abort (terminating spawned workers) if the campaign has not
    #: finished after this many seconds. None: wait forever.
    timeout: float | None = None
    on_status: Callable[[str], None] | None = None
    #: Elastic fleet mode: instead of (or on top of) the fixed
    #: ``spawn_workers`` fleet, spawn workers toward the live
    #: unclaimed-cell queue depth, bounded by ``min_workers`` /
    #: ``max_workers``. Elastic workers carry a ``max_idle`` so they
    #: retire on their own once the queue drains; the coordinator then
    #: respawns on the next depth spike. Every decision is a
    #: ``fleet.scale`` telemetry event.
    autoscale: bool = False
    min_workers: int = 0
    max_workers: int = 4
    #: Idle self-retirement handed to elastic workers (None: derived
    #: from the poll interval).
    worker_max_idle: float | None = None
    #: Injectable time source for timeout/status pacing and the expired-
    #: lease sweep; tests drive it with a FakeClock instead of waiting.
    clock: Clock = time.time
    #: Injectable poll wait, paired with ``clock``.
    sleep: Callable[[float], None] = time.sleep


def run_distributed(
    matrix: SuiteMatrix,
    registry_root: str | Path,
    budget: int | None = None,
    config: CoordinatorConfig | None = None,
) -> SuiteOutcome:
    """Coordinate a distributed campaign; blocks until it finishes.

    Returns the :class:`SuiteOutcome` the local runner builds, from the
    same :func:`campaign_outcome` fold of a progress map probed after
    the spawned workers exit — a distributed campaign (including worker
    deaths, elastic scale-ups, and lease reclaims along the way) merges
    to exactly the report of a clean single-process run.
    """
    config = config or CoordinatorConfig()
    registry = RunRegistry(registry_root)
    cells = matrix.cells()
    if len({cell.key for cell in cells}) != len(cells):
        raise ConfigError("suite matrix expands to duplicate cells")
    progress = campaign_progress(registry, cells, matrix.seed)
    skipped = sum(1 for state in progress.values() if state.complete)
    write_manifest(matrix, registry_root, budget=budget)

    ctx = multiprocessing.get_context("spawn")
    fleet_sink = TelemetrySink(registry.root_node(), clock=config.clock)

    def spawn(worker_id: str, max_idle: float | None) -> object:
        process = ctx.Process(
            target=worker_entry,
            kwargs={
                "matrix_args": matrix_to_dict(matrix),
                "registry_root": str(registry_root),
                "worker_id": worker_id,
                "lease_ttl": config.lease_ttl,
                "poll_interval": config.poll_interval,
                "eval_workers": config.eval_workers,
                "budget": budget,
                "max_idle": max_idle,
            },
            daemon=False,
        )
        process.start()
        return process

    workers = [
        spawn(f"coord-w{index}", None)
        for index in range(config.spawn_workers)
    ]
    elastic: list = []
    elastic_spawned = 0
    elastic_retired = 0
    elastic_max_idle = (
        config.worker_max_idle
        if config.worker_max_idle is not None
        else max(5.0, 10.0 * config.poll_interval)
    )

    reclaimed = 0
    started = config.clock()
    last_status = started
    aborted = False
    try:
        while not campaign_finished(cells, budget, progress):
            # Sweep expired leases so dead workers' cells free up even
            # while every survivor is busy on other cells.
            for cell in cells:
                cfg = cell.config_dict()
                seed = cell.seed(matrix.seed)
                if progress[cell.key].complete or progress[cell.key].failed:
                    continue
                if break_expired_lease(
                    registry.run_node(cfg, seed), clock=config.clock
                ):
                    reclaimed += 1
            if config.autoscale:
                # Reap retired elastic workers first, then grow toward
                # the live queue depth.
                gone = [p for p in elastic if not p.is_alive()]
                if gone:
                    elastic = [p for p in elastic if p.is_alive()]
                    elastic_retired += len(gone)
                    fleet_sink.emit(
                        "fleet.scale",
                        action="retire",
                        count=len(gone),
                        fleet=len(elastic),
                    )
                depth = 0
                for cell, _cap in claimable_cells(cells, budget, progress):
                    node = registry.run_node(
                        cell.config_dict(), cell.seed(matrix.seed)
                    )
                    info = read_lease(node)
                    if info is None or info.is_expired(config.clock()):
                        depth += 1
                target = max(config.min_workers, min(config.max_workers, depth))
                if len(elastic) < target:
                    grow = target - len(elastic)
                    for _ in range(grow):
                        worker_id = f"elastic-w{elastic_spawned}"
                        elastic.append(spawn(worker_id, elastic_max_idle))
                        elastic_spawned += 1
                    fleet_sink.emit(
                        "fleet.scale",
                        action="spawn",
                        count=grow,
                        depth=depth,
                        fleet=len(elastic),
                        target=target,
                    )
            now = config.clock()
            if (
                config.on_status is not None
                and config.status_interval is not None
                and now - last_status >= config.status_interval
            ):
                from ..viz.campaign import campaign_snapshot, render_campaign

                budget_view = (
                    compute_allocations(cells, budget, progress)
                    if budget is not None
                    else None
                )
                config.on_status(
                    render_campaign(
                        campaign_snapshot(
                            matrix, registry, progress, budget_view,
                            clock=config.clock,
                        )
                    )
                )
                last_status = now
            if (
                config.spawn_workers
                and not config.autoscale
                and not any(p.is_alive() for p in workers)
            ):
                # Every spawned worker exited but the campaign is not
                # finished (external workers may still be coming in a
                # mixed fleet, but with a purely-spawned fleet this
                # means cells died past max retries). Re-probe once so
                # the race "workers finished while we slept" reads as
                # success, then stop. With autoscale on, an empty fleet
                # just means the queue drained — the next depth spike
                # respawns.
                progress = campaign_progress(registry, cells, matrix.seed)
                if campaign_finished(cells, budget, progress):
                    break
                aborted = True
                raise ReproError(
                    "all spawned workers exited before the campaign "
                    "finished; inspect the registry for stuck cells"
                )
            if config.timeout is not None and now - started > config.timeout:
                aborted = True
                raise ReproError(
                    f"campaign did not finish within {config.timeout:.0f}s"
                )
            config.sleep(config.poll_interval)
            progress = campaign_progress(registry, cells, matrix.seed)
    finally:
        if not aborted:
            # Normal completion: workers exit on their own once they
            # observe the finished campaign (elastic ones possibly
            # earlier, via their idle timeout).
            for process in workers + elastic:
                if process.is_alive():
                    process.join(timeout=config.lease_ttl + 10.0)
        for process in workers + elastic:
            # Abort path (or a worker that refuses to exit): terminate
            # immediately — waiting a lease TTL per worker would turn a
            # --timeout abort into a multi-minute hang.
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        if elastic_spawned:
            fleet_sink.emit(
                "fleet.scale",
                action="final",
                spawned=elastic_spawned,
                retired=elastic_retired,
            )

    # Re-probe after the join: a worker may still have been finishing a
    # cell when the campaign read as finished (a cell-atomic cell past
    # its cap, or a capped one between its last checkpoint and its
    # result), and its result.json lands during the join.
    progress = campaign_progress(registry, cells, matrix.seed)
    outcome = campaign_outcome(
        matrix, budget, progress, rounds=1, skipped=skipped
    )
    if reclaimed:
        outcome.report.notes.append(
            f"coordinator reclaimed {reclaimed} expired lease(s)"
        )
    if elastic_spawned:
        outcome.report.notes.append(
            f"elastic fleet spawned {elastic_spawned} worker(s)"
        )
    return outcome
