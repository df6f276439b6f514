"""``repro suite --distributed``: the campaign coordinator.

The coordinator owns the campaign's lifecycle but none of its work:

* it writes the ``campaign.json`` manifest into the registry root, so
  bare ``repro worker --registry DIR`` processes (on this machine or
  any machine sharing the registry — a directory or an object-store
  URI) know the matrix, scale, seed, and budget without re-typing them;
* it sizes a fleet of local worker processes (real OS processes via
  the ``spawn`` context — each one is exactly a ``repro worker``) to
  the queue: every poll it spawns toward the number of claimable cells
  whose lease is absent or expired, up to ``spawn_workers``, and its
  workers retire on their own once idle. Every spawn, retirement and
  death is a ``fleet.scale`` telemetry event at the registry root, and
  a death names its workers' ids (each process is named by its id);
* it reclaims nothing itself: a worker claiming a cell steals its
  expired lease, so every reclaim is that worker's ``lease.claim``;
* it stops a crash loop: once ``spawn_workers`` spawned workers in a
  row have died (a non-zero exit) with no cell completing or failing
  in between, it terminates the fleet and raises;
* it watches lease/checkpoint state live, re-rendering the campaign
  status view;
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
    settled_cells,
)
from .clock import Clock
from .lease import read_lease
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
    """Knobs of one coordinator run.

    Each spawned worker runs one cell at a time, its search in its own
    process, so ``spawn_workers`` bounds the campaign's local processes.
    """

    #: Ceiling on live spawned workers, and the run of consecutive
    #: worker deaths that aborts the campaign (0: external workers only).
    spawn_workers: int = 0
    #: Lease TTL handed to spawned workers.
    lease_ttl: float = 30.0
    poll_interval: float = 1.0
    #: Seconds between status-view renders (None: no live status).
    status_interval: float | None = None
    #: Abort (terminating spawned workers) if the campaign has not
    #: finished after this many seconds. None: wait forever.
    timeout: float | None = None
    on_status: Callable[[str], None] | None = None
    #: Injectable time source for timeout/status pacing and the lease
    #: expiry the fleet is sized by; tests drive it with a FakeClock
    #: instead of waiting.
    clock: Clock = time.time
    #: Injectable poll wait, paired with ``clock``.
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        # A negative ceiling would never spawn, and the campaign would
        # wait on an empty fleet forever.
        if self.spawn_workers < 0:
            raise ConfigError("worker count must be non-negative")


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
    deaths, fleet growth, and lease steals along the way) merges to
    exactly the report of a clean single-process run. Raises
    :class:`ReproError` on a timeout, and once ``spawn_workers`` spawned
    workers in a row died with no cell completing or failing between.
    """
    config = config or CoordinatorConfig()
    registry = RunRegistry(registry_root)
    cells = matrix.cells()
    if len({cell.key for cell in cells}) != len(cells):
        raise ConfigError("suite matrix expands to duplicate cells")
    if budget is not None and budget < 0:
        raise ConfigError("budget must be non-negative")
    progress = campaign_progress(registry, cells, matrix.seed)
    skipped = sum(1 for state in progress.values() if state.complete)
    write_manifest(matrix, registry_root, budget=budget)

    ctx = multiprocessing.get_context("spawn")
    fleet_sink = TelemetrySink(registry.root_node(), clock=config.clock)
    # Spawned workers retire once idle this long; the next depth spike
    # respawns.
    max_idle = max(5.0, 10.0 * config.poll_interval)

    def spawn(worker_id: str) -> object:
        process = ctx.Process(
            target=worker_entry,
            name=worker_id,
            kwargs={
                "matrix_args": matrix_to_dict(matrix),
                "registry_root": str(registry_root),
                "worker_id": worker_id,
                "lease_ttl": config.lease_ttl,
                "poll_interval": config.poll_interval,
                "budget": budget,
                "max_idle": max_idle,
            },
            daemon=False,
        )
        process.start()
        return process

    fleet: list = []
    spawned = retired = died = 0

    def reap() -> list[int]:
        """Drop exited workers from the fleet; the death exit codes."""
        nonlocal fleet, retired, died
        gone = [p for p in fleet if not p.is_alive()]
        fleet = [p for p in fleet if p not in gone]
        # Idle retirement exits 0; any other exit is a death.
        dead = [p for p in gone if p.exitcode != 0]
        codes = [p.exitcode for p in dead]
        retiring = len(gone) - len(codes)
        if retiring:
            retired += retiring
            fleet_sink.emit(
                "fleet.scale", action="retire", count=retiring, fleet=len(fleet)
            )
        if codes:
            died += len(codes)
            fleet_sink.emit(
                "fleet.scale",
                action="died",
                count=len(codes),
                exit_codes=codes,
                workers=[p.name for p in dead],
                fleet=len(fleet),
            )
        return codes

    # Exit codes of the spawned workers that died since a cell last
    # completed or failed.
    deaths: list[int] = []
    settled = settled_cells(progress)
    started = config.clock()
    last_status = started
    aborted = False
    try:
        while not campaign_finished(cells, budget, progress):
            if len(deaths) >= max(1, config.spawn_workers):
                aborted = True
                raise ReproError(
                    f"{len(deaths)} spawned worker(s) died in a row with "
                    f"no cell completing or failing (exit codes {deaths}); "
                    "inspect the registry for the cell that kills them"
                )
            now = config.clock()
            depth = 0
            for cell, _cap in claimable_cells(cells, budget, progress):
                node = registry.run_node(
                    cell.config_dict(), cell.seed(matrix.seed)
                )
                info = read_lease(node)
                if info is None or info.is_expired(now):
                    depth += 1
            target = min(config.spawn_workers, depth)
            if len(fleet) < target:
                grow = target - len(fleet)
                for _ in range(grow):
                    fleet.append(spawn(f"elastic-w{spawned}"))
                    spawned += 1
                fleet_sink.emit(
                    "fleet.scale",
                    action="spawn",
                    count=grow,
                    depth=depth,
                    fleet=len(fleet),
                    target=target,
                )
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
            if config.timeout is not None and now - started > config.timeout:
                aborted = True
                raise ReproError(
                    f"campaign did not finish within {config.timeout:.0f}s"
                )
            config.sleep(config.poll_interval)
            # Reap before probing: a cell a worker settled before it
            # died then counts as progress, not as part of a crash loop.
            deaths.extend(reap())
            progress = campaign_progress(registry, cells, matrix.seed)
            now_settled = settled_cells(progress)
            if now_settled > settled:
                settled = now_settled
                deaths.clear()
    finally:
        if not aborted:
            # Normal completion: workers exit on their own once they
            # observe the finished campaign.
            for process in fleet:
                process.join(timeout=config.lease_ttl + 10.0)
        reap()
        for process in fleet:
            # Abort path (or a worker that refuses to exit): terminate
            # immediately — waiting a lease TTL per worker would turn a
            # --timeout abort into a multi-minute hang.
            process.terminate()
            process.join(timeout=5.0)
        if spawned:
            fleet_sink.emit(
                "fleet.scale",
                action="final",
                spawned=spawned,
                retired=retired,
                died=died,
            )

    # Re-probe after the join: a worker may still have been finishing a
    # cell when the campaign read as finished (a cell-atomic cell past
    # its cap, or a capped one between its last checkpoint and its
    # result), and its result.json lands during the join.
    progress = campaign_progress(registry, cells, matrix.seed)
    outcome = campaign_outcome(
        matrix, budget, progress, rounds=1, skipped=skipped
    )
    if spawned:
        outcome.report.notes.append(
            f"elastic fleet spawned {spawned} worker(s)"
        )
    return outcome
