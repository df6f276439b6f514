"""The worker daemon: claim, execute, resume, reclaim — and identity.

The acceptance contract of the distributed layer: a campaign executed
by any number of ``repro worker`` processes on one shared registry —
including workers killed mid-cell whose leases expire and are reclaimed
— yields a merged report identical to the same campaign run
single-process.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.distrib.budget import campaign_progress
from repro.distrib.clock import FakeClock
from repro.distrib.coordinator import matrix_to_dict
from repro.distrib.lease import read_lease, try_acquire_lease
from repro.distrib.worker import WorkerConfig, run_worker, worker_entry
from repro.ga.engine import GeneticEngine
from repro.ga.problem import OptimizationProblem
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.experiments.common import SCALES
from repro.graphs.zoo import get_model
from repro.obs import TELEMETRY_FILENAME
from repro.runs.checkpoint import ga_checkpoint_to_dict
from repro.runs.registry import RunRegistry
from repro.runs.suite import (
    FAULT_ENV,
    SuiteCell,
    SuiteMatrix,
    cell_accelerator,
    merged_report,
    run_suite,
)
from repro.search_space import CapacitySpace


MATRIX = SuiteMatrix(
    networks=("vgg16", "googlenet"),
    schemes=("cocco", "sa"),
    scale="tiny",
    seed=0,
)

FAST = dict(lease_ttl=1.0, poll_interval=0.02)


def spawn_worker(ctx, matrix, registry, worker_id, budget=None, **overrides):
    kwargs = dict(
        matrix_args=matrix_to_dict(matrix),
        registry_root=str(registry),
        worker_id=worker_id,
        lease_ttl=overrides.get("lease_ttl", 1.0),
        poll_interval=overrides.get("poll_interval", 0.02),
        budget=budget,
    )
    process = ctx.Process(target=worker_entry, kwargs=kwargs)
    process.start()
    return process


@pytest.fixture(scope="module")
def clean_rows(tmp_path_factory):
    """The single-process reference report for MATRIX."""
    registry = tmp_path_factory.mktemp("clean") / "reg"
    return run_suite(MATRIX, registry).report.rows


class TestSingleWorker:
    def test_completes_campaign_identical_to_serial(self, tmp_path, clean_rows):
        summary = run_worker(
            MATRIX, tmp_path / "reg", WorkerConfig(worker_id="w0", **FAST)
        )
        assert summary.cells_completed == 4
        rows = merged_report(MATRIX, RunRegistry(tmp_path / "reg")).rows
        assert rows == clean_rows

    def test_entry_decodes_the_spawned_matrix(self, monkeypatch):
        """A spawned worker holds the coordinator's matrix: equal, and
        hashable like it."""
        seen = []
        monkeypatch.setattr(
            "repro.distrib.worker.run_worker",
            lambda matrix, *args, **kwargs: seen.append(matrix),
        )
        worker_entry(matrix_to_dict(MATRIX), "reg", "w0")
        assert seen == [MATRIX]
        assert hash(seen[0]) == hash(MATRIX)

    def test_exits_immediately_on_finished_campaign(self, tmp_path):
        run_worker(MATRIX, tmp_path / "reg", WorkerConfig(worker_id="w0", **FAST))
        summary = run_worker(
            MATRIX, tmp_path / "reg", WorkerConfig(worker_id="w1", **FAST)
        )
        assert summary.cells_run == 0
        assert summary.idle_seconds == 0.0

    def test_inherits_half_finished_cell_bit_identically(
        self, tmp_path, clean_rows
    ):
        """A cell with a dead peer's checkpoint + expired lease resumes
        mid-search and finishes exactly as an uninterrupted run."""
        cell = SuiteCell(
            network="vgg16", mode="separate", metric="energy",
            bytes_per_element=1, scheme="cocco", alpha=0.002, scale="tiny",
        )
        seed = cell.seed(0)
        scale = SCALES["tiny"]
        evaluator = Evaluator(get_model(cell.network), cell_accelerator(cell))
        problem = OptimizationProblem(
            evaluator=evaluator, metric=Metric.ENERGY, alpha=cell.alpha,
            space=CapacitySpace.paper_separate(),
        )
        checkpoints = {}
        GeneticEngine(problem, scale.co_opt_ga_config(seed=seed)).run(
            on_generation=lambda ck: checkpoints.__setitem__(ck.generation, ck)
        )
        registry = RunRegistry(tmp_path / "reg")
        run = registry.open_run(cell.config_dict(), seed)
        run.save_checkpoint(ga_checkpoint_to_dict(checkpoints[2]))
        # the dead peer's lease, long expired
        stale = try_acquire_lease(run.node, "dead-peer", ttl=0.01)
        assert stale is not None
        time.sleep(0.05)

        summary = run_worker(
            MATRIX, tmp_path / "reg", WorkerConfig(worker_id="heir", **FAST)
        )
        assert summary.leases_reclaimed >= 1
        assert summary.cells_resumed >= 1
        rows = merged_report(MATRIX, registry).rows
        assert rows == clean_rows


class TestStaleProgress:
    """A cell a peer finished after the worker's progress probe."""

    def test_claimed_cell_finished_since_the_probe_is_released_unrun(
        self, tmp_path, monkeypatch
    ):
        matrix = SuiteMatrix(
            networks=("vgg16",), schemes=("cocco",), scale="tiny", seed=0
        )
        registry = RunRegistry(tmp_path / "reg")
        (cell,) = matrix.cells()
        # The worker's first probe predates the peer's completion.
        stale = campaign_progress(registry, matrix.cells(), matrix.seed)
        run_suite(matrix, tmp_path / "reg")
        probes = [stale]

        def probe(*args):
            return probes.pop() if probes else campaign_progress(*args)

        monkeypatch.setattr("repro.distrib.worker.campaign_progress", probe)
        fake = FakeClock()
        summary = run_worker(
            matrix,
            tmp_path / "reg",
            WorkerConfig(
                worker_id="late", poll_interval=0.02, clock=fake, sleep=fake.sleep
            ),
        )
        assert not probes  # the stale map was served
        assert (summary.cells_run, summary.cells_completed) == (0, 0)
        assert summary.cells_resumed == 0
        node = registry.run_node(cell.config_dict(), cell.seed(matrix.seed))
        assert read_lease(node) is None
        assert '"lease.claim"' not in node.read_text(TELEMETRY_FILENAME)


class TestFinishedCells:
    """Complete and failed are terminal: a cell seen finished stays so."""

    def test_no_cell_is_reprobed_after_it_is_seen_finished(
        self, tmp_path, monkeypatch
    ):
        passes: list[dict] = []  # per pass: the states its probe returned

        def probe(registry, cells, seed):
            progress = campaign_progress(registry, cells, seed)
            passes.append(dict(progress))
            return progress

        monkeypatch.setattr("repro.distrib.worker.campaign_progress", probe)
        summary = run_worker(
            MATRIX, tmp_path / "reg", WorkerConfig(worker_id="w0", **FAST)
        )
        assert summary.cells_completed == 4
        assert len(passes) == 5  # one per cell, then the finished check
        for cell in MATRIX.cells():
            seen = min(
                i for i, progress in enumerate(passes, 1)
                if cell.key in progress and progress[cell.key].complete
            )
            later = sum(cell.key in progress for progress in passes[seen:])
            assert later <= 1, cell.cell_id


class TestIdleGiveUp:
    """``max_idle`` against a logical clock: no real waiting at all."""

    def test_max_idle_returns_without_wall_waits(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        # peers hold every cell under long-lived leases: nothing is
        # claimable, but the campaign is unfinished
        fake = FakeClock()
        for cell in MATRIX.cells():
            node = registry.run_node(cell.config_dict(), cell.seed(0))
            assert try_acquire_lease(
                node, "peer", ttl=10_000.0, clock=fake
            ) is not None
        summary = run_worker(
            MATRIX,
            tmp_path / "reg",
            WorkerConfig(
                worker_id="idler",
                max_idle=5.0,
                poll_interval=1.0,
                clock=fake,
                sleep=fake.sleep,
            ),
        )
        assert summary.cells_run == 0
        assert summary.idle_seconds > 5.0
        assert fake.now - 1_000.0 > 5.0  # time passed only logically


class TestConcurrentWorkers:
    """Satellite: multiple processes against one registry, disjoint cells."""

    def test_stress_three_processes_match_serial(self, tmp_path, clean_rows):
        registry = tmp_path / "reg"
        ctx = multiprocessing.get_context("spawn")
        workers = [
            spawn_worker(ctx, MATRIX, registry, f"stress-{i}")
            for i in range(3)
        ]
        for process in workers:
            process.join(timeout=180)
            assert process.exitcode == 0
        shared = RunRegistry(registry)
        rows = merged_report(MATRIX, shared).rows
        assert rows == clean_rows
        # every cell was completed exactly once: one run dir per cell
        # ("warm" is the registry's shared warm-summary store, not a
        # run), each holding one durable result and no lingering lease
        run_dirs = [
            p for p in registry.iterdir() if p.is_dir() and p.name != "warm"
        ]
        assert len(run_dirs) == 4
        for cell in MATRIX.cells():
            node = shared.run_node(cell.config_dict(), cell.seed(MATRIX.seed))
            assert node.exists("result.json")
            assert read_lease(node) is None

    def test_budgeted_two_processes_match_budgeted_serial(self, tmp_path):
        budget = 220  # SA cells refund into the hungrier cocco cells
        serial = run_suite(MATRIX, tmp_path / "serial", budget=budget)
        registry = tmp_path / "reg"
        ctx = multiprocessing.get_context("spawn")
        workers = [
            spawn_worker(ctx, MATRIX, registry, f"bw-{i}", budget=budget)
            for i in range(2)
        ]
        for process in workers:
            process.join(timeout=180)
            assert process.exitcode == 0
        rows = merged_report(MATRIX, RunRegistry(registry)).rows
        assert rows == serial.report.rows
        # the budget was respected exactly
        progress = campaign_progress(
            RunRegistry(registry), MATRIX.cells(), MATRIX.seed
        )
        assert sum(p.evaluations for p in progress.values()) <= budget


class TestKilledWorker:
    """A worker SIGKILLed mid-cell: lease expires, peer reclaims, resumes."""

    def test_survivor_reclaims_and_report_matches_clean(
        self, tmp_path, clean_rows, monkeypatch
    ):
        registry = tmp_path / "reg"
        ctx = multiprocessing.get_context("spawn")
        # victim: dies (os._exit) on the first cell it claims
        monkeypatch.setenv(FAULT_ENV, "vgg16/separate/energy/b1/cocco")
        victim = spawn_worker(ctx, MATRIX, registry, "victim")
        victim.join(timeout=120)
        assert victim.exitcode == 23  # the injected hard kill
        monkeypatch.delenv(FAULT_ENV)
        # it died holding its lease
        leases = list(registry.glob("*/lease.json"))
        assert len(leases) == 1

        summary = run_worker(
            MATRIX, registry, WorkerConfig(worker_id="survivor", **FAST)
        )
        assert summary.leases_reclaimed >= 1
        assert summary.cells_completed == 4
        rows = merged_report(MATRIX, RunRegistry(registry)).rows
        assert rows == clean_rows

    def test_fault_marker_prevents_refire(self, tmp_path, monkeypatch):
        """The injected fault fires once; the retry runs the cell."""
        registry = tmp_path / "reg"
        ctx = multiprocessing.get_context("spawn")
        # target exactly one cell: a broader pattern would fire again
        # (in-process!) when the survivor reaches the sibling cell
        monkeypatch.setenv(FAULT_ENV, "googlenet/separate/energy/b1/cocco")
        victim = spawn_worker(ctx, MATRIX, registry, "victim")
        victim.join(timeout=120)
        assert victim.exitcode == 23
        markers = list(registry.glob("*/fault-attempted"))
        assert len(markers) == 1
        # survivor runs with the env still set: the marker holds it off
        summary = run_worker(
            MATRIX, registry, WorkerConfig(worker_id="survivor", **FAST)
        )
        assert summary.leases_reclaimed == 1
        reg = RunRegistry(registry)
        assert all(
            reg.is_complete(c.config_dict(), c.seed(MATRIX.seed))
            for c in MATRIX.cells()
        )


class TestKilledWorkerNewSchemes:
    """The new checkpointable schemes (islands, two-step) inherit the
    kill/reclaim/resume contract, including under a sample budget."""

    ISLAND_MATRIX = SuiteMatrix(
        networks=("vgg16",), schemes=("islands", "rs"), scale="tiny", seed=0
    )

    def test_budgeted_kill_resume_matches_budgeted_serial(
        self, tmp_path, monkeypatch
    ):
        budget = 120
        serial = run_suite(
            self.ISLAND_MATRIX, tmp_path / "serial", budget=budget
        )
        registry = tmp_path / "reg"
        ctx = multiprocessing.get_context("spawn")
        # victim dies mid-islands-cell, holding its lease
        monkeypatch.setenv(FAULT_ENV, "/islands/")
        victim = spawn_worker(
            ctx, self.ISLAND_MATRIX, registry, "victim", budget=budget
        )
        victim.join(timeout=120)
        assert victim.exitcode == 23
        monkeypatch.delenv(FAULT_ENV)

        summary = run_worker(
            self.ISLAND_MATRIX, registry,
            WorkerConfig(worker_id="survivor", **FAST), budget=budget,
        )
        assert summary.leases_reclaimed >= 1
        rows = merged_report(self.ISLAND_MATRIX, RunRegistry(registry)).rows
        assert rows == serial.report.rows
        progress = campaign_progress(
            RunRegistry(registry),
            self.ISLAND_MATRIX.cells(),
            self.ISLAND_MATRIX.seed,
        )
        assert sum(p.evaluations for p in progress.values()) == budget


class TestWorkerTelemetry:
    """Workers stream lease/budget telemetry beside each cell they run."""

    SMALL = SuiteMatrix(
        networks=("vgg16",), schemes=("sa",), scale="tiny", seed=0
    )

    def events(self, registry_root, cell):
        import json

        from repro.obs import TELEMETRY_FILENAME

        node = RunRegistry(registry_root).run_node(
            cell.config_dict(), cell.seed(self.SMALL.seed)
        )
        text = node.read_text(TELEMETRY_FILENAME)
        return [json.loads(line) for line in text.splitlines()]

    def test_claim_and_release_events(self, tmp_path):
        run_worker(
            self.SMALL, tmp_path / "reg",
            WorkerConfig(worker_id="w-obs", **FAST),
        )
        events = self.events(tmp_path / "reg", self.SMALL.cells()[0])
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "lease.claim"
        assert kinds[-1] == "lease.release"
        claim = events[0]
        assert claim["owner"] == "w-obs"
        assert claim["via"] == "fresh"
        assert claim["resumed"] is False
        release = events[-1]
        assert release["released"] is True
        assert release["lost"] is False
        # The cell's own lifecycle events sit between claim and release.
        assert "cell.start" in kinds
        assert "cell.finish" in kinds

    def test_budget_grant_event_carries_cap(self, tmp_path):
        run_worker(
            self.SMALL, tmp_path / "reg",
            WorkerConfig(worker_id="w-obs", **FAST), budget=40,
        )
        events = self.events(tmp_path / "reg", self.SMALL.cells()[0])
        grants = [e for e in events if e["kind"] == "budget.grant"]
        assert grants and grants[0]["cap"] == 40
        assert grants[0]["budget"] == 40
