"""``repro dash`` — live terminal dashboard for a running campaign.

Renders a :class:`~repro.obs.aggregate.CampaignView` as plain ANSI
text: per-cell convergence sparklines (best cost over streamed
progress), the live lease/status table the suite already prints, a
fleet block (the coordinator's spawned, retired and died worker
counts, and per-worker heartbeat age and eval throughput from the
enriched lease renewals), budget spend/refund totals, and the
campaign-wide telemetry counters.

Because the view is a pure read of registry bytes, the dashboard works
equally against a campaign that is *running* (point it at the shared
registry from any terminal) and one that is *finished or dead* — a
post-mortem ``repro dash --once`` over a killed campaign renders
whatever the workers managed to stream before dying.

The refresh loop's clock and sleep are injectable so tests drive it
deterministically; the CLI passes real time.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

from ..runs.registry import RunRegistry
from ..viz.campaign import render_campaign
from .aggregate import CampaignView, CellSeries, build_view
from .events import Clock

#: Sparkline ramp, coarse → fine. Pure ASCII so the dashboard renders
#: identically over ssh, CI logs, and dumb terminals.
_RAMP = " .:-=+*#%@"

#: ANSI: clear screen, cursor home. The only escape codes we emit.
_CLEAR = "\x1b[2J\x1b[H"


def sparkline(values: list[float], width: int = 32) -> str:
    """Render a numeric series as a fixed-width ASCII sparkline.

    The series is resampled to ``width`` columns (last value wins per
    bucket) and scaled so the ramp spans [min, max]. Lower values map to
    lower ramp glyphs, so a *descending* best-cost curve reads as a
    left-high, right-low slope. Non-finite values are dropped; an empty
    or constant series renders flat.
    """
    finite = [v for v in values if v == v and abs(v) != float("inf")]
    if not finite:
        return "-" * width
    if len(values) > width:
        # Last-value-wins resample keeps the newest point of each bucket.
        step = len(values) / width
        values = [values[min(int((i + 1) * step) - 1, len(values) - 1)]
                  for i in range(width)]
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for value in values:
        if not (value == value and abs(value) != float("inf")):
            out.append("?")
            continue
        frac = 0.0 if span == 0 else (value - lo) / span
        out.append(_RAMP[min(int(frac * len(_RAMP)), len(_RAMP) - 1)])
    return "".join(out).ljust(width, " ")


def _series_line(series: CellSeries, width: int) -> str | None:
    costs = [
        p.best_cost for p in series.points if p.best_cost is not None
    ]
    if not costs:
        return None
    return (
        f"  {series.cell_id:<40} |{sparkline(costs, width)}| "
        f"{costs[-1]:.6g}"
    )


def _fmt_rate(rate: float | None) -> str:
    return f"{rate:.1f}/s" if rate is not None else "-"


def render_dashboard(view: CampaignView, width: int = 32) -> str:
    """One full dashboard frame as plain text (no escape codes)."""
    lines: list[str] = []
    tally = view.tally
    summary = ", ".join(
        f"{count} {state}" for state, count in sorted(tally.items())
    )
    lines.append(f"campaign: {len(view.statuses)} cells ({summary})")
    best = view.best_cost
    lines.append(
        f"best cost: {best:.6g}" if best is not None else "best cost: -"
    )
    if view.budget is not None:
        lines.append(
            f"budget: {view.budget} samples, spent {view.spent}, "
            f"refunded {view.refunded}"
            + (", OUT OF BUDGET" if view.out_of_budget else "")
        )
    else:
        lines.append(f"spent: {view.spent} evaluations")

    lines.append("")
    lines.append("convergence (best cost over streamed progress):")
    drawn = 0
    for cell_id in sorted(view.series):
        line = _series_line(view.series[cell_id], width)
        if line is not None:
            lines.append(line)
            drawn += 1
    if not drawn:
        lines.append("  (no cell has streamed history yet)")

    lines.append("")
    lines.append(render_campaign(list(view.statuses)))

    totals = view.telemetry
    if view.workers or totals.fleet_spawned:
        lines.append("")
        lines.append("fleet:")
        if totals.fleet_spawned:
            lines.append(
                f"  spawned {totals.fleet_spawned}, retired "
                f"{totals.fleet_retired}, died {totals.fleet_died}"
            )
        for worker in view.workers:
            beat = (
                f"{worker.heartbeat_age:.0f}s"
                if worker.heartbeat_age is not None
                else "-"
            )
            evals = (
                str(worker.evals_done)
                if worker.evals_done is not None
                else "-"
            )
            state = (
                "DEAD" if worker.dead
                else "STALLED" if worker.stalled
                else "live"
            )
            lines.append(
                f"  {worker.owner:<24} {state:<8} beat {beat:<6} "
                f"evals {evals:<8} rate {_fmt_rate(worker.rate)}  "
                f"cells: {', '.join(worker.cells)}"
            )

    if totals.events:
        hit = totals.batch_hit_rate
        lines.append("")
        lines.append(
            f"telemetry: {totals.events} events, {totals.spans} spans, "
            f"{totals.claims} claims ({totals.steals} stolen), "
            f"{totals.grants} grants"
        )
        if totals.genomes_batched and hit is not None:
            lines.append(
                f"batch pricing: {totals.genomes_batched} genomes in "
                f"{totals.batch_spans} batches, warm share {hit:.1%}"
            )
    return "\n".join(lines)


def run_dash(
    matrix: Any,
    registry: RunRegistry | str | Path,
    budget: int | None = None,
    interval: float = 2.0,
    once: bool = False,
    frames: int | None = None,
    emit: Callable[[str], None] = print,
    clock: Clock = time.time,
    sleep: Callable[[float], None] = time.sleep,
    width: int = 32,
) -> int:
    """Run the dashboard loop; returns the number of frames rendered.

    ``once`` renders a single frame with no screen clearing (CI and
    post-mortem use). The live loop clears the screen per frame and
    stops after ``frames`` refreshes (forever when ``None``) — tests
    pass a finite count plus fake ``clock``/``sleep``.
    """
    if isinstance(registry, (str, Path)):
        registry = RunRegistry(registry)
    rendered = 0
    while True:
        view = build_view(matrix, registry, budget=budget, clock=clock)
        frame = render_dashboard(view, width=width)
        if once:
            emit(frame)
            return rendered + 1
        emit(_CLEAR + frame)
        rendered += 1
        if frames is not None and rendered >= frames:
            return rendered
        sleep(interval)
