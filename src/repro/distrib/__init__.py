"""Distributed campaign execution over a shared run registry.

Any filesystem that several ``repro worker`` processes can reach (NFS,
a shared volume, plain local disk for same-host workers) becomes a
horizontal work queue:

* :mod:`repro.distrib.lease` — atomic per-cell lease files with owner
  id, heartbeat timestamps, and expiry-based reclaim of dead workers'
  cells.
* :mod:`repro.distrib.budget` — DiGamma-style campaign sample budgets:
  deterministic per-cell allocations with re-grants of unspent samples
  from converged cells to unconverged ones.
* :mod:`repro.distrib.worker` — the long-running ``repro worker``
  daemon: claims cells, executes them with the existing checkpoint
  streaming, renews its heartbeat, and resumes half-finished cells it
  inherits from dead workers.
* :mod:`repro.distrib.coordinator` — ``repro suite --distributed``:
  enqueues the campaign manifest, sizes a fleet of local workers to the
  queue of claimable cells, watches lease/checkpoint state live, and
  merges results exactly as the local path does.

The design invariant: **correctness never depends on mutual
exclusion**. Cell execution is a deterministic function of (cell,
derived seed, budget-cap sequence), every durable write is atomic, and
``result.json`` presence is the sole completion marker — so even the
pathological lease races (clock skew, a worker stalled past its TTL)
degrade to duplicate execution of identical work, never to a wrong or
half-written result. Leases are an efficiency mechanism; the merged
report of an N-worker campaign with injected kills is bit-identical to
a clean single-process run.
"""

from __future__ import annotations

from .budget import (
    BudgetView,
    CellProgress,
    campaign_progress,
    claimable_cells,
    compute_allocations,
)
from .clock import Clock, FakeClock
from .lease import (
    Heartbeat,
    Lease,
    LeaseInfo,
    break_expired_lease,
    read_lease,
    release_lease,
    renew_lease,
    try_acquire_lease,
)
from .coordinator import (
    CoordinatorConfig,
    matrix_from_dict,
    matrix_to_dict,
    read_manifest,
    run_distributed,
    write_manifest,
)
from .worker import WorkerConfig, WorkerSummary, run_worker, worker_entry

__all__ = [
    "CoordinatorConfig",
    "matrix_from_dict",
    "matrix_to_dict",
    "read_manifest",
    "run_distributed",
    "write_manifest",
    "BudgetView",
    "CellProgress",
    "campaign_progress",
    "claimable_cells",
    "compute_allocations",
    "Clock",
    "FakeClock",
    "Heartbeat",
    "Lease",
    "LeaseInfo",
    "break_expired_lease",
    "read_lease",
    "release_lease",
    "renew_lease",
    "try_acquire_lease",
    "WorkerConfig",
    "WorkerSummary",
    "run_worker",
    "worker_entry",
]
