"""Live campaign status: what every cell is doing right now.

Built entirely from the registry's durable artifacts — ``result.json``
(complete), ``error.json`` (failed), ``lease.json`` (who is working the
cell, how fresh their heartbeat is), ``checkpoint.json`` presence, and
the tail of the streamed ``history.jsonl`` (current generation/step,
evaluations, best cost) — so a coordinator, a watching terminal, or a
CI job can render the same view any worker would derive, with no side
channel. Every file is read through its registry node. Reading is
cheap: only the final block of each history stream is fetched
(``read_tail``, a suffix read), so the view stays live even over big
registries. Whether a cell is ``exhausted`` is the budget scheduler's
verdict, replayed from the same checkpoints it reads — never the
history tail, which may run ahead of the last checkpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..experiments.reporting import format_table
from ..runs.registry import RunRegistry, iter_jsonl_text

if TYPE_CHECKING:  # pragma: no cover
    from ..distrib.budget import BudgetView, CellProgress
    from ..distrib.clock import Clock

#: How far from the end of a history stream to look for its last line.
_TAIL_BYTES = 4096


def tail_jsonl_node(node, filename: str) -> dict | None:
    """The last complete JSON object of a node's ``.jsonl`` stream.

    Reads only the final block (the transport's ``read_tail`` maps to a
    ranged/suffix read) and takes the last record
    :func:`iter_jsonl_text` yields from it: a line torn by a writer
    killed mid-append is skipped, and so is the block's first line when
    the read starts mid-line (only JSON objects count as records).
    ``None`` when the stream is missing or holds no complete record.
    """
    records = list(iter_jsonl_text(node.read_tail(filename, _TAIL_BYTES)))
    return records[-1] if records else None


@dataclass(frozen=True)
class CellStatus:
    """One cell's live state."""

    cell_id: str
    #: ``complete`` | ``failed`` | ``running`` | ``stalled`` (lease
    #: expired — a reclaim candidate) | ``exhausted`` (out of sample
    #: budget) | ``pending``
    state: str
    owner: str | None = None
    heartbeat_age: float | None = None
    #: Last streamed progress marker (generation for GA/NSGA, step for
    #: SA, monotonic tick for islands/two-step), when the cell has
    #: streamed any.
    progress: int | None = None
    evaluations: int | None = None
    best_cost: float | None = None
    #: Current cumulative sample cap (budgeted campaigns only).
    sample_cap: int | None = None
    #: Owner's cumulative evaluation counter from its heartbeat (leased
    #: cells whose worker enriches its renewals; see repro.distrib.lease).
    worker_evals: int | None = None
    #: Owner's start timestamp from its heartbeat — with
    #: ``worker_evals`` this yields per-worker eval throughput.
    worker_started_at: float | None = None


def campaign_snapshot(
    matrix,
    registry: RunRegistry,
    progress: dict[tuple, CellProgress],
    budget_view: BudgetView | None = None,
    clock: Clock = time.time,
) -> list[CellStatus]:
    """Every cell of ``matrix`` in matrix order, folded from ``progress``.

    ``progress`` is the caller's
    :func:`~repro.distrib.budget.campaign_progress` map and
    ``budget_view`` its scheduler verdict (``None`` for an unbudgeted
    campaign). Only the leases and history tails of unfinished cells
    are read here; ``clock`` judges lease expiry and heartbeat age.
    """
    from ..distrib.lease import read_lease

    now = clock()
    statuses = []
    for cell in matrix.cells():
        state = progress[cell.key]
        cap = (
            budget_view.allocations[cell.key]
            if budget_view is not None
            else None
        )
        if state.complete:
            statuses.append(
                CellStatus(
                    cell_id=cell.cell_id,
                    state="complete",
                    evaluations=state.result.get("num_evaluations"),
                    best_cost=state.result.get("best_cost"),
                    sample_cap=cap,
                )
            )
            continue
        if state.failed:
            statuses.append(
                CellStatus(cell_id=cell.cell_id, state="failed", sample_cap=cap)
            )
            continue
        node = registry.run_node(cell.config_dict(), cell.seed(matrix.seed))
        tail = tail_jsonl_node(node, "history.jsonl") or {}
        progress_mark = tail.get(
            "tick", tail.get("generation", tail.get("step"))
        )
        evaluations = tail.get("evaluations")
        best_cost = tail.get("best_cost")
        lease = read_lease(node)
        if lease is not None:
            statuses.append(
                CellStatus(
                    cell_id=cell.cell_id,
                    state="stalled" if lease.is_expired(now) else "running",
                    owner=lease.owner,
                    heartbeat_age=lease.age(now),
                    progress=progress_mark,
                    evaluations=evaluations,
                    best_cost=best_cost,
                    sample_cap=cap,
                    worker_evals=lease.evals_done,
                    worker_started_at=lease.started_at,
                )
            )
            continue
        exhausted = (
            budget_view is not None and cell.key in budget_view.exhausted
        )
        statuses.append(
            CellStatus(
                cell_id=cell.cell_id,
                state="exhausted" if exhausted else "pending",
                progress=progress_mark,
                evaluations=evaluations,
                best_cost=best_cost,
                sample_cap=cap,
            )
        )
    return statuses


def render_campaign(statuses: list[CellStatus]) -> str:
    """ASCII status table, one row per cell, plus a tally line."""
    headers = ("cell", "state", "owner", "beat", "w_evals", "prog", "evals",
               "cap", "best_cost")
    rows = []
    for status in statuses:
        rows.append(
            (
                status.cell_id,
                status.state,
                status.owner or "-",
                (
                    f"{status.heartbeat_age:.0f}s"
                    if status.heartbeat_age is not None
                    else "-"
                ),
                (
                    status.worker_evals
                    if status.worker_evals is not None
                    else "-"
                ),
                status.progress if status.progress is not None else "-",
                status.evaluations if status.evaluations is not None else "-",
                status.sample_cap if status.sample_cap is not None else "-",
                (
                    f"{status.best_cost:.6g}"
                    if isinstance(status.best_cost, (int, float))
                    else "-"
                ),
            )
        )
    tally: dict[str, int] = {}
    for status in statuses:
        tally[status.state] = tally.get(status.state, 0) + 1
    summary = ", ".join(f"{count} {state}" for state, count in sorted(tally.items()))
    title = f"campaign status ({summary})"
    return format_table(headers, rows, title=title)
