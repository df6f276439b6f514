"""Campaign-level sample-budget scheduling (DiGamma-style).

A budgeted campaign caps the *total* number of genome evaluations it
may spend. The scheduler splits that budget into per-cell cumulative
allocations and re-grants unspent samples from converged cells to
unconverged ones, in deterministic rounds:

* round 1 splits the whole budget evenly over all cells (remainder to
  the earliest cells in matrix order);
* a round *resolves* when every cell still in play has either finished
  (result or durable error) or run exactly up to its allocation
  (checkpointed, out of samples). A cell-atomic scheme (``nsga``) only
  spends by running whole, so while it is unfinished it keeps its round
  open and stays claimable, whatever its checkpoint counts;
* on resolution, finished cells refund their unspent samples
  (``allocation - evaluations actually used``; cell-atomic schemes may
  overdraw, which simply shrinks the refund pool — floored at zero) and
  the pool splits over the cells that are still hungry;
* the campaign is out of budget when the pool empties while hungry
  cells remain — those cells keep their checkpoints and resume if the
  campaign is re-run with a larger budget.

Everything here is a **pure function of (cells, budget, durable
registry state)**. No ledger file, no coordinator decision: any worker
— or the local runner — recomputes the same allocations from
the same registry bytes, which is what makes an N-worker budgeted
campaign (with kills and lease steals) produce exactly the merged
report of a clean single-process run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..errors import ConfigError
from ..runs.registry import RunHandle, RunRegistry
from ..runs.suite import CAPPED_SCHEMES


@dataclass(frozen=True)
class CellProgress:
    """One cell's durable progress, probed from the registry."""

    complete: bool
    failed: bool
    #: Evaluations durably spent: the stored result's count for complete
    #: cells, the checkpoint's count otherwise (0 with no checkpoint).
    evaluations: int
    #: A complete cell's stored ``result.json``; ``None`` otherwise. Not
    #: part of the scheduler state, so it takes no part in comparisons.
    result: dict[str, Any] | None = field(
        default=None, compare=False, repr=False
    )
    #: A failed cell's stored error message; ``None`` otherwise. Not
    #: scheduler state either.
    error: str | None = field(default=None, compare=False, repr=False)


def cell_progress(
    registry: RunRegistry, config: dict[str, Any], seed: int
) -> CellProgress:
    """Probe one cell's durable state.

    The one reader of a cell's durable files: the campaign runners, the
    merged report, the outcome tally and the status views all fold the
    map :func:`campaign_progress` builds from it.
    """
    if registry.is_complete(config, seed):
        result = registry.load(config, seed).load_result()
        return CellProgress(
            complete=True,
            failed=False,
            evaluations=int(result.get("num_evaluations", 0)),
            result=result,
        )
    evaluations = 0
    handle = RunHandle(registry.run_node(config, seed), config)
    try:
        # One read, ``None`` when the cell never checkpointed.
        state = handle.load_checkpoint()
        if state is not None:
            evaluations = int(state.get("evaluations", 0))
    except (ConfigError, ValueError, TypeError, AttributeError):
        # Undecodable, or not a checkpoint object at all: counts as no
        # checkpoint. A failed read (an ``OSError``, such as an
        # unavailable object store) propagates: taken for "no
        # checkpoint", it would refund the samples the cell spent.
        pass
    if registry.has_error(config, seed):
        # A failed cell still durably *spent* whatever its checkpoint
        # recorded before the error; refunding those samples would let
        # the campaign exceed its budget.
        stored = handle.load_error() or {}
        return CellProgress(
            complete=False,
            failed=True,
            evaluations=evaluations,
            error=stored.get("error", "failed"),
        )
    return CellProgress(complete=False, failed=False, evaluations=evaluations)


def campaign_progress(
    registry: RunRegistry, cells: Sequence[Any], campaign_seed: int
) -> dict[tuple, CellProgress]:
    """Progress for every cell, keyed by the cell's stable key."""
    return {
        cell.key: cell_progress(
            registry, cell.config_dict(), cell.seed(campaign_seed)
        )
        for cell in cells
    }


def settled_cells(progress: dict[tuple, CellProgress]) -> int:
    """Cells that completed or failed: a campaign's forward progress.

    Both runners bound worker deaths by it: ``run_suite`` stops after
    ``workers`` broken rounds in a row, and the coordinator after
    ``spawn_workers`` dead workers in a row, with no cell settling in
    between.
    """
    return sum(1 for state in progress.values() if state.complete or state.failed)


def _split(pool: int, count: int) -> list[int]:
    """Even integer split; the remainder goes to the earliest cells."""
    base, extra = divmod(pool, count)
    return [base + (1 if i < extra else 0) for i in range(count)]


@dataclass(frozen=True)
class BudgetView:
    """The scheduler's verdict for the current durable state."""

    #: Cumulative per-cell sample caps, keyed by cell key. Cells that
    #: finished keep the allocation of the round they finished in.
    allocations: dict[tuple, int]
    #: Keys of unfinished cells sitting exactly at their cap, waiting
    #: for the current round to resolve (or for the budget to grow).
    exhausted: frozenset
    #: True when no further grants are possible: every unfinished cell
    #: is at its cap and the refund pool is empty. The campaign is done
    #: (some cells possibly unconverged) once this holds.
    out_of_budget: bool


def compute_allocations(
    cells: Sequence[Any],
    budget: int,
    progress: dict[tuple, CellProgress],
) -> BudgetView:
    """Replay the deterministic grant rounds against current progress.

    The replay walks the same rounds every caller walks: grant, check
    whether the round resolved, refund, re-grant. It stops at the first
    round that has a cell still mid-run (its allocation then stands) or
    when the pool empties.

    The subtle rule that makes the replay *path-independent*: a
    completed checkpointable cell whose evaluation count exceeds the
    round's allocation is treated as exhausted at that round (exactly
    what it was, historically — a regrant only happens once a cell has
    spent its cap to the last sample), and only resolves with a refund
    in the round whose allocation covers its spend. Without this, a
    replay would "see" the completion rounds early, refund into a
    different round's pool, and different workers could derive
    different grant waypoints for the surviving cells. Cell-atomic
    schemes resolve in their first round by construction (they run to
    completion whenever they run at all), so an unfinished one has spent
    nothing yet: only a zero allocation leaves it waiting.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    checkpointable = {
        cell.key: cell.scheme in CAPPED_SCHEMES for cell in cells
    }
    allocations = {cell.key: 0 for cell in cells}
    # What an unfinished cell has spent against its cap: its checkpoint's
    # count, or nothing for a cell-atomic scheme.
    spent = {
        key: progress[key].evaluations if checkpointable[key] else 0
        for key in allocations
    }
    active = [cell.key for cell in cells]
    pool = budget
    while pool > 0 and active:
        for key, grant in zip(active, _split(pool, len(active))):
            allocations[key] += grant
        pool = 0
        refunds = 0
        still_active = []
        blocked = False
        for key in active:
            state = progress[key]
            if state.complete:
                if (
                    checkpointable[key]
                    and state.evaluations > allocations[key]
                ):
                    # Historically still mid-budget at this round:
                    # it exhausted this cap, then finished under a
                    # later, larger one. Keep replaying.
                    still_active.append(key)
                else:
                    refunds += allocations[key] - state.evaluations
            elif state.failed:
                # Refund only the *unspent* part: evaluations recorded
                # in the cell's checkpoint before it failed were really
                # drawn from the budget.
                refunds += max(0, allocations[key] - state.evaluations)
            elif spent[key] >= allocations[key]:
                still_active.append(key)  # exhausted at this cap
            else:
                still_active.append(key)
                blocked = True  # mid-run (or not started): round open
        if blocked:
            break
        pool = max(0, refunds)
        active = still_active
    unfinished_active = [
        key
        for key in active
        if not progress[key].complete and not progress[key].failed
    ]
    exhausted = frozenset(
        key for key in unfinished_active if spent[key] >= allocations[key]
    )
    out_of_budget = (
        pool == 0
        and bool(unfinished_active)
        and len(exhausted) == len(unfinished_active)
    )
    return BudgetView(
        allocations=allocations,
        exhausted=exhausted,
        out_of_budget=out_of_budget,
    )


def claimable_cells(
    cells: Sequence[Any],
    budget: int | None,
    progress: dict[tuple, CellProgress],
) -> list[tuple]:
    """The cells worth running right now, as ``(cell, cap)`` pairs.

    A cell is claimable when it is unfinished and has samples left under
    its current allocation (always, for unbudgeted campaigns — the cap
    is then ``None``). Exhausted cells are *not* claimable: they wait
    for their round to resolve and re-enter once a refund grant lands.
    An unfinished cell-atomic cell is claimable under any positive cap.
    """
    if budget is None:
        return [
            (cell, None)
            for cell in cells
            if not progress[cell.key].complete and not progress[cell.key].failed
        ]
    view = compute_allocations(cells, budget, progress)
    return [
        (cell, view.allocations[cell.key])
        for cell in cells
        if not progress[cell.key].complete
        and not progress[cell.key].failed
        and cell.key not in view.exhausted
    ]


def campaign_finished(
    cells: Sequence[Any],
    budget: int | None,
    progress: dict[tuple, CellProgress],
) -> bool:
    """Whether no work remains: all cells finished, or out of budget.

    Distinct from ``not claimable_cells(...)``: a round that is still
    resolving (some cell mid-run, perhaps on another worker) has no
    claimable cells *yet* but is not finished.
    """
    unfinished = [
        cell for cell in cells
        if not progress[cell.key].complete and not progress[cell.key].failed
    ]
    if not unfinished:
        return True
    if budget is None:
        return False
    return compute_allocations(cells, budget, progress).out_of_budget
