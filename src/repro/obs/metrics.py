"""Metrics export: Prometheus textfile + JSON snapshot of a campaign.

``repro export-metrics`` (and ``repro suite --metrics-out``) turn a
:class:`~repro.obs.aggregate.CampaignView` into two sibling files:

* ``<prefix>.prom`` — Prometheus text exposition format, suitable for
  the node-exporter textfile collector (drop the file into its watched
  directory and the whole campaign shows up in Grafana);
* ``<prefix>.json`` — the same numbers as one nested JSON object, for
  anything that is not Prometheus.

Both are *snapshots*: pure functions of the registry bytes at probe
time, safe to re-run while workers race (metrics never hold locks) and
after the campaign is dead (post-mortem export renders whatever
survived). Writes are plain create-and-replace of scrape artifacts —
deliberately **not** the registry transport's ``write_atomic``
durable-record path, because metrics carry wall-clock-derived values
and must stay out of the determinism envelope.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from ..runs.registry import RunRegistry
from .aggregate import CampaignView, build_view
from .events import TELEMETRY_VERSION, Clock

_PREFIX = "repro_campaign"


def campaign_metrics(view: CampaignView) -> dict[str, Any]:
    """Flatten a view into the numbers both export formats share."""
    tally = view.tally
    totals = view.telemetry
    workers = [
        {
            "owner": worker.owner,
            "cells": list(worker.cells),
            "stalled": worker.stalled,
            "dead": worker.dead,
            "heartbeat_age_s": worker.heartbeat_age,
            "evals_done": worker.evals_done,
            "evals_per_s": worker.rate,
        }
        for worker in view.workers
    ]
    cells = [
        {
            "cell": status.cell_id,
            "state": status.state,
            "progress": status.progress,
            "evaluations": status.evaluations,
            "best_cost": status.best_cost,
            "sample_cap": status.sample_cap,
        }
        for status in view.statuses
    ]
    return {
        "version": TELEMETRY_VERSION,
        "cells_total": len(view.statuses),
        "states": tally,
        "best_cost": view.best_cost,
        "budget": view.budget,
        "spent_evaluations": view.spent,
        "refunded_samples": view.refunded,
        "out_of_budget": view.out_of_budget,
        "telemetry": {
            "events": totals.events,
            "spans": totals.spans,
            "lease_claims": totals.claims,
            "lease_steals": totals.steals,
            "lease_releases": totals.releases,
            "budget_grants": totals.grants,
            "cells_started": totals.cells_started,
            "cells_finished": totals.cells_finished,
            "cells_errored": totals.cells_errored,
            "fleet_spawned": totals.fleet_spawned,
            "fleet_retired": totals.fleet_retired,
            "fleet_died": totals.fleet_died,
            "genomes_batched": totals.genomes_batched,
            "genomes_cold": totals.genomes_cold,
            "batch_hit_rate": totals.batch_hit_rate,
            "evaluator_stats": dict(totals.evaluator_stats),
        },
        "workers": workers,
        "cells": cells,
    }


def _escape_label(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sample(
    name: str, value: Any, labels: dict[str, str] | None = None
) -> str | None:
    if value is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    if not isinstance(value, (int, float)):
        return None
    label_text = ""
    if labels:
        inner = ",".join(
            f'{key}="{_escape_label(str(val))}"'
            for key, val in sorted(labels.items())
        )
        label_text = "{" + inner + "}"
    if isinstance(value, float) and value != value:
        rendered = "NaN"
    elif value in (float("inf"), float("-inf")):
        rendered = "+Inf" if value > 0 else "-Inf"
    else:
        rendered = repr(float(value)) if isinstance(value, float) else str(value)
    return f"{_PREFIX}_{name}{label_text} {rendered}"


def render_prometheus(view: CampaignView) -> str:
    """The campaign as Prometheus text exposition format."""
    metrics = campaign_metrics(view)
    lines: list[str] = []

    def block(name: str, kind: str, help_text: str, samples: list) -> None:
        rendered = [s for s in samples if s is not None]
        if not rendered:
            return
        lines.append(f"# HELP {_PREFIX}_{name} {help_text}")
        lines.append(f"# TYPE {_PREFIX}_{name} {kind}")
        lines.extend(rendered)

    block(
        "cells", "gauge", "Cells in the campaign matrix by state.",
        [
            _sample("cells", count, {"state": state})
            for state, count in sorted(metrics["states"].items())
        ],
    )
    block(
        "best_cost", "gauge", "Best cost reported by any cell.",
        [_sample("best_cost", metrics["best_cost"])],
    )
    block(
        "budget_samples", "gauge", "Campaign sample budget (if capped).",
        [_sample("budget_samples", metrics["budget"])],
    )
    block(
        "spent_evaluations", "counter",
        "Evaluations durably spent across all cells.",
        [_sample("spent_evaluations", metrics["spent_evaluations"])],
    )
    block(
        "refunded_samples", "counter",
        "Samples refunded to the grant pool by terminal cells.",
        [_sample("refunded_samples", metrics["refunded_samples"])],
    )
    block(
        "out_of_budget", "gauge",
        "1 when the grant pool is empty with hungry cells remaining.",
        [_sample("out_of_budget", metrics["out_of_budget"])],
    )

    telemetry = metrics["telemetry"]
    block(
        "telemetry_events", "counter",
        "Telemetry records across every cell stream.",
        [_sample("telemetry_events", telemetry["events"])],
    )
    block(
        "lease_claims", "counter", "Lease claims by kind.",
        [
            _sample(
                "lease_claims",
                telemetry["lease_claims"] - telemetry["lease_steals"],
                {"via": "fresh"},
            ),
            _sample(
                "lease_claims", telemetry["lease_steals"], {"via": "stolen"}
            ),
        ],
    )
    block(
        "budget_grants", "counter", "Budget grants issued to workers.",
        [_sample("budget_grants", telemetry["budget_grants"])],
    )
    block(
        "batch_hit_rate", "gauge",
        "Warm share of batch-priced genomes (0-1).",
        [_sample("batch_hit_rate", telemetry["batch_hit_rate"])],
    )

    block(
        "worker_heartbeat_age_seconds", "gauge",
        "Per-worker freshest heartbeat age.",
        [
            _sample(
                "worker_heartbeat_age_seconds",
                worker["heartbeat_age_s"],
                {"owner": worker["owner"]},
            )
            for worker in metrics["workers"]
        ],
    )
    block(
        "worker_evaluations", "counter",
        "Per-worker cumulative evaluations (heartbeat-reported).",
        [
            _sample(
                "worker_evaluations",
                worker["evals_done"],
                {"owner": worker["owner"]},
            )
            for worker in metrics["workers"]
        ],
    )

    block(
        "cell_evaluations", "gauge", "Per-cell streamed evaluation count.",
        [
            _sample(
                "cell_evaluations",
                cell["evaluations"],
                {"cell": cell["cell"]},
            )
            for cell in metrics["cells"]
        ],
    )
    block(
        "cell_best_cost", "gauge", "Per-cell streamed best cost.",
        [
            _sample(
                "cell_best_cost", cell["best_cost"], {"cell": cell["cell"]}
            )
            for cell in metrics["cells"]
        ],
    )
    return "\n".join(lines) + "\n"


def write_metrics(
    view: CampaignView, prefix: str | Path
) -> tuple[Path, Path]:
    """Write ``<prefix>.prom`` and ``<prefix>.json``; return both paths.

    Plain replace-on-write: scrape collectors tolerate (and expect)
    whole-file swaps, and these artifacts are outside the registry's
    durable-record contract by design.
    """
    prefix = Path(prefix)
    if prefix.parent != Path("."):
        os.makedirs(prefix.parent, exist_ok=True)
    prom_path = prefix.with_suffix(".prom")
    json_path = prefix.with_suffix(".json")
    prom_path.write_text(render_prometheus(view), encoding="utf-8")
    json_path.write_text(
        json.dumps(campaign_metrics(view), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return prom_path, json_path


def export_metrics(
    matrix: Any,
    registry: RunRegistry | str | Path,
    prefix: str | Path,
    budget: int | None = None,
    clock: Clock = time.time,
) -> tuple[Path, Path]:
    """Probe a campaign and export its metrics snapshot in one call."""
    if isinstance(registry, (str, Path)):
        registry = RunRegistry(registry)
    view = build_view(matrix, registry, budget=budget, clock=clock)
    return write_metrics(view, prefix)
