"""The campaign benchmark's workloads and its correctness gate.

A workload is a generated :class:`repro.runs.suite.SuiteMatrix` plus the
public entry point that runs it: ``run_suite`` (serial or on the
process pool) or ``run_worker`` against the bundled object store. The
campaign seeds come from the benchmark's ``--seed``
(:meth:`Workload.campaign_seeds`); the program only ever sees the
generated matrix.

The gate is what makes a timing count: cell results are deterministic
for a fixed seed, so every campaign of one campaign seed must produce a
merged report with the same digest, and for the default seed's campaign
seeds the digest committed in ``digests.json`` (produced by a *serial
filesystem* ``run_suite`` of the same matrix and budget, which is how the
pool and object-store reports are held to bit-identity with it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: The campaign seed whose merged reports are committed in digests.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One campaign shape and the entry point that runs it."""

    name: str
    why: str
    networks: tuple[str, ...]
    modes: tuple[str, ...]
    metrics: tuple[str, ...]
    schemes: tuple[str, ...]
    scale: str
    #: ``run_suite`` process count (1 = the serial backend).
    workers: int = 1
    #: Campaign evaluation budget (``None``: every cell runs to completion).
    budget: int | None = None
    #: Run one ``run_worker`` against a fresh object-store process
    #: instead of ``run_suite`` on a filesystem registry.
    objectstore: bool = False
    #: Campaign seeds one timed run covers. A campaign's time depends on
    #: its seed (by about ±5 % on ``suite-serial``), so a run averages
    #: over several rather than report one seed's cost.
    seeds_per_run: int = 2

    def campaign_seeds(self, seed: int) -> list[int]:
        """The campaign seeds of benchmark seed ``seed``; the default
        seed's start at 0."""
        return [seed * self.seeds_per_run + k for k in range(self.seeds_per_run)]

    def matrix(self, seed: int):
        from repro.runs.suite import SuiteMatrix

        return SuiteMatrix(
            networks=self.networks,
            modes=self.modes,
            metrics=self.metrics,
            schemes=self.schemes,
            scale=self.scale,
            seed=seed,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="suite-serial",
            why=(
                "serial GA/SA breeding loop on googlenet+resnet50: partition "
                "normalization dominates, so the partition layer shows here first"
            ),
            networks=("googlenet", "resnet50"),
            modes=("separate",),
            metrics=("energy",),
            schemes=("cocco", "sa"),
            scale="quick",
            seeds_per_run=3,
        ),
        Workload(
            name="suite-pool",
            why=(
                "16 shared-buffer cells on a 2-process pool: two-step, NSGA and "
                "island searches, per-genome memory keys, warm-store exchange"
            ),
            networks=("resnet50", "randwire_a"),
            modes=("shared",),
            metrics=("energy", "ema"),
            schemes=("rs", "gs", "nsga", "islands"),
            scale="quick",
            workers=2,
        ),
        Workload(
            name="worker-objectstore",
            why=(
                "run_worker over the HTTP object store with a budget below need: "
                "short cells, per-cell transport I/O, leases and re-grant rounds"
            ),
            networks=("googlenet", "resnet50", "mobilenet_v2"),
            modes=("separate", "shared"),
            metrics=("energy",),
            schemes=("cocco", "sa", "rs", "islands"),
            scale="tiny",
            budget=1500,
            objectstore=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------
def report_digest(report) -> str:
    """SHA-256 of a merged report's full content (floats at full repr)."""
    payload = {
        "experiment": report.experiment,
        "headers": list(report.headers),
        "rows": [list(row) for row in report.rows],
        "notes": list(report.notes),
        "extra": report.extra,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def committed_digests(workload: Workload) -> dict[int, str]:
    """``{campaign seed: digest}`` committed for ``workload``."""
    if not DIGESTS_PATH.exists():
        return {}
    table = json.loads(DIGESTS_PATH.read_text()).get(workload.name, {})
    return {int(seed): digest for seed, digest in table.items()}


def check_campaign(
    workload: Workload, result: dict[str, Any], expected_digest: str | None
) -> list[str]:
    """Every reason one campaign's outcome is wrong (empty when correct).

    ``result`` is what a campaign process reports: cell counts by final
    state, evaluations spent, and the merged report's digest.
    ``expected_digest`` is the digest every campaign of this workload
    and campaign seed must reproduce (the committed one when there is
    one, the run's first campaign of that seed otherwise).
    """
    problems = []
    cells = result["cells"]
    if result["failed"]:
        problems.append(f"{result['failed']} of {cells} cells failed")
    if workload.budget is None:
        if result["complete"] != cells:
            problems.append(
                f"only {result['complete']} of {cells} cells completed"
            )
    else:
        if result["complete"] + result["exhausted"] != cells:
            problems.append(
                f"{cells - result['complete'] - result['exhausted']} of "
                f"{cells} cells neither completed nor stopped at the budget"
            )
        if result["evaluations"] != workload.budget:
            problems.append(
                f"spent {result['evaluations']} evaluations, "
                f"budget is exactly {workload.budget}"
            )
    if expected_digest is not None and result["digest"] != expected_digest:
        problems.append(
            f"merged report digest {result['digest'][:16]} != expected "
            f"{expected_digest[:16]}"
        )
    return problems


def completed_cell_ratio(result: dict[str, Any]) -> float:
    """Cells that completed (or stopped exactly at their budget) / cells."""
    return (result["complete"] + result["exhausted"]) / result["cells"]
