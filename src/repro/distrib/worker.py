"""The ``repro worker`` daemon: lease-claim cells and execute them.

A worker points at a shared registry directory, expands the campaign
matrix (from CLI flags or the coordinator's ``campaign.json`` manifest),
and loops:

1. probe durable progress; exit when the campaign is finished (every
   cell complete/failed, or the sample budget is spent). Both finished
   states are terminal, so a cell once seen finished is not probed
   again;
2. claim the first claimable cell in matrix order — free cells via
   atomic lease creation, dead workers' cells by stealing their expired
   leases — and re-probe it under the lease: a cell a peer finished
   since step 1 is released untouched and the next one tried;
3. execute the cell through :func:`repro.runs.suite.run_cell` under a
   heartbeat thread: checkpoints stream per generation/step/island/
   candidate exactly as in local mode, so a cell of *any* scheme
   inherited half-finished resumes bit-identically mid-search, and a
   budget-capped cell stops exactly at its cap (``nsga`` alone stays
   cell-atomic and charges its exact count);
4. release the lease (completion already wrote ``result.json``
   atomically; deterministic failures wrote ``error.json``).

When nothing is claimable but the campaign is unfinished (peers hold
all remaining cells), the worker idles at ``poll_interval`` until a
cell frees up, a lease expires, or the campaign completes.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import ConfigError
from ..obs import TelemetrySink
from ..runs.registry import CHECKPOINT_FILENAME, RunRegistry
from ..runs.suite import SuiteCellTask, SuiteMatrix, matrix_from_dict
from ..viz.campaign import tail_jsonl_node
from .budget import (
    CellProgress,
    campaign_finished,
    campaign_progress,
    cell_progress,
    claimable_cells,
)
from .clock import Clock
from .lease import Heartbeat, release_lease, try_acquire_lease


def default_worker_id() -> str:
    """A human-traceable id: host + pid."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerConfig:
    """Knobs of one worker daemon.

    A worker runs one leased cell at a time, its search in the worker's
    own process; a campaign scales by running more workers.
    """

    worker_id: str = field(default_factory=default_worker_id)
    #: Seconds without a heartbeat before peers may reclaim our cells.
    lease_ttl: float = 30.0
    #: Idle sleep between probes when nothing is claimable.
    poll_interval: float = 1.0
    #: Give up after this many consecutive idle seconds (None: wait
    #: forever for peers — the normal daemon mode).
    max_idle: float | None = None
    #: Injectable time source; tests drive idle/expiry behavior with a
    #: :class:`~repro.distrib.clock.FakeClock` instead of real waits.
    clock: Clock = time.time
    #: Injectable idle wait, paired with ``clock`` (a FakeClock's
    #: ``sleep`` advances logical time and returns immediately).
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        # Rejected before a cell is claimed, not by ``sleep`` mid-campaign.
        if self.poll_interval < 0:
            raise ConfigError("poll interval must be non-negative")


@dataclass
class WorkerSummary:
    """What one worker did over its lifetime."""

    worker_id: str
    cells_run: int = 0
    cells_completed: int = 0
    cells_failed: int = 0
    cells_exhausted: int = 0
    #: Cells claimed with a checkpoint already on disk — work inherited
    #: from an earlier attempt (ours or a dead peer's).
    cells_resumed: int = 0
    #: Leases reclaimed from expired (dead) owners.
    leases_reclaimed: int = 0
    idle_seconds: float = 0.0

    def render(self) -> str:
        return (
            f"worker {self.worker_id}: ran {self.cells_run} cell(s) "
            f"({self.cells_completed} completed, {self.cells_failed} failed, "
            f"{self.cells_exhausted} paused at budget), "
            f"resumed {self.cells_resumed} inherited checkpoint(s), "
            f"reclaimed {self.leases_reclaimed} expired lease(s), "
            f"idled {self.idle_seconds:.1f}s"
        )


def run_worker(
    matrix: SuiteMatrix,
    registry_root: str | Path,
    config: WorkerConfig | None = None,
    budget: int | None = None,
) -> WorkerSummary:
    """Work the campaign until it is finished; returns the summary.

    Safe to run any number of workers against the same registry: cells
    are claimed under leases, every durable write is atomic, and cell
    execution is deterministic — so the merged report is identical to a
    single-process run no matter how many workers participate or die.
    """
    config = config or WorkerConfig()
    registry = RunRegistry(registry_root)
    cells = matrix.cells()
    task = SuiteCellTask(matrix, registry_root)
    summary = WorkerSummary(worker_id=config.worker_id)
    idle_since: float | None = None
    started_at = config.clock()
    evals_total = 0
    # Complete and failed are terminal: ``result.json`` is written last
    # and never deleted, and no runner retries a cell with an
    # ``error.json``. So a cell seen finished is not probed again.
    finished: dict[tuple, CellProgress] = {}

    while True:
        progress = campaign_progress(
            registry,
            [cell for cell in cells if cell.key not in finished],
            matrix.seed,
        )
        finished.update(
            (key, state)
            for key, state in progress.items()
            if state.complete or state.failed
        )
        progress.update(finished)
        if campaign_finished(cells, budget, progress):
            return summary
        claimed = None
        for cell, cap in claimable_cells(cells, budget, progress):
            cell_config, cell_seed = cell.config_dict(), cell.seed(matrix.seed)
            node = registry.run_node(cell_config, cell_seed)
            lease = try_acquire_lease(
                node, config.worker_id, config.lease_ttl,
                clock=config.clock,
            )
            if lease is None:
                continue
            # A peer may have finished the cell since ``progress`` was
            # probed; running it again would only re-read its result.
            state = cell_progress(registry, cell_config, cell_seed)
            if state.complete or state.failed:
                finished[cell.key] = state
                release_lease(lease)
                continue
            claimed = (cell, cap, lease, node)
            break
        if claimed is None:
            now = config.clock()
            if idle_since is None:
                idle_since = now
            elif (
                config.max_idle is not None
                and now - idle_since > config.max_idle
            ):
                return summary
            config.sleep(config.poll_interval)
            summary.idle_seconds += config.poll_interval
            continue

        idle_since = None
        cell, cap, lease, node = claimed
        if lease.via == "stolen":
            summary.leases_reclaimed += 1
        resumed = node.exists(CHECKPOINT_FILENAME)
        if resumed:
            summary.cells_resumed += 1
        summary.cells_run += 1

        def progress_snapshot() -> dict:
            # Heartbeat enrichment: cumulative evaluations = finished
            # cells' totals plus the live cell's streamed count. Read
            # from the durable history tail, so the number a peer sees
            # is exactly what a resume would trust.
            tail = tail_jsonl_node(node, "history.jsonl") or {}
            current = tail.get("evaluations")
            return {
                "evals_done": evals_total + (
                    current if isinstance(current, int) else 0
                ),
                "started_at": started_at,
            }

        sink = TelemetrySink(node, clock=config.clock)
        sink.emit(
            "lease.claim",
            cell=cell.cell_id,
            owner=config.worker_id,
            via=lease.via,
            resumed=resumed,
        )
        if cap is not None:
            sink.emit(
                "budget.grant",
                cell=cell.cell_id,
                cap=cap,
                budget=budget,
            )
        beat = Heartbeat(
            lease, clock=config.clock, progress=progress_snapshot
        )
        try:
            with beat:
                row = task((cell, cap))
        finally:
            # Release even on unexpected errors; a durable result/error
            # marker (when one was written) is what peers actually
            # trust. An unreleased lease would merely cost one TTL.
            released = release_lease(lease)
            sink.emit(
                "lease.release",
                cell=cell.cell_id,
                owner=config.worker_id,
                released=released,
                lost=beat.lost,
            )
        status = row.get("status")
        if isinstance(row.get("num_evaluations"), int):
            evals_total += row["num_evaluations"]
        if status == "complete":
            summary.cells_completed += 1
        elif status == "failed":
            summary.cells_failed += 1
        elif status == "exhausted":
            summary.cells_exhausted += 1


def worker_entry(
    matrix_args: dict,
    registry_root: str,
    worker_id: str,
    lease_ttl: float = 30.0,
    poll_interval: float = 1.0,
    budget: int | None = None,
    max_idle: float | None = None,
) -> None:
    """Spawn-friendly module-level entry point.

    The coordinator (and the multi-process tests) launch workers with
    ``multiprocessing.get_context("spawn").Process(target=worker_entry,
    ...)``; everything crossing the boundary is plain picklable data.
    """
    matrix = matrix_from_dict(matrix_args)
    config = WorkerConfig(
        worker_id=worker_id,
        lease_ttl=lease_ttl,
        poll_interval=poll_interval,
        max_idle=max_idle,
    )
    run_worker(matrix, registry_root, config, budget=budget)
