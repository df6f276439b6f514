"""The ``repro suite`` campaign runner: sharding, resume, fault recovery.

Covers the acceptance contract: a matrix shards across workers, a
restarted campaign re-runs only incomplete cells, a killed worker's
cell is retried rather than recorded as complete, and the merged report
of any interrupted-and-resumed campaign is bit-identical to an
uninterrupted run at the same campaign seed.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.distrib.budget import campaign_progress, settled_cells
from repro.errors import ConfigError
from repro.experiments.common import SCALES
from repro.ga.engine import GeneticEngine
from repro.ga.problem import OptimizationProblem
from repro.graphs.zoo import get_model
from repro.parallel.backend import ProcessPoolBackend
from repro.runs.checkpoint import ga_checkpoint_to_dict
from repro.obs import TELEMETRY_FILENAME
from repro.runs.registry import RunRegistry, iter_jsonl_text
from repro.runs.suite import (
    FAULT_ENV,
    SuiteCell,
    SuiteCellTask,
    SuiteMatrix,
    cell_accelerator,
    merged_report,
    run_cell,
    run_suite,
)
from repro.search_space import CapacitySpace
from repro.viz.export import read_result_json, write_result


MATRIX = SuiteMatrix(
    networks=("vgg16", "googlenet"),
    schemes=("cocco", "sa"),
    scale="tiny",
    seed=0,
)


def report_rows(outcome):
    return outcome.report.rows


# ---------------------------------------------------------------------------
class TestMatrixExpansion:
    def test_cross_product(self):
        matrix = SuiteMatrix(
            networks=("a", "b"),
            modes=("separate", "shared"),
            metrics=("ema",),
            schemes=("cocco", "sa", "rs"),
            alphas=(0.002, 0.005),
            scale="tiny",
        )
        # construction of SuiteCell validates fields; bypass network check
        cells = [
            (c.network, c.mode, c.scheme, c.alpha) for c in matrix.cells()
        ]
        assert len(cells) == 2 * 2 * 3 * 2
        assert len(set(cells)) == len(cells)

    def test_network_major_order(self):
        networks = [c.network for c in MATRIX.cells()]
        assert networks == ["vgg16", "vgg16", "googlenet", "googlenet"]

    def test_cell_seed_is_order_independent(self):
        cell = MATRIX.cells()[2]
        solo = SuiteCell(
            network=cell.network, mode=cell.mode, metric=cell.metric,
            bytes_per_element=cell.bytes_per_element, scheme=cell.scheme,
            alpha=cell.alpha, scale=cell.scale,
        )
        assert solo.seed(0) == cell.seed(0)
        assert solo.seed(0) != solo.seed(1)

    def test_invalid_cells_rejected(self):
        with pytest.raises(ConfigError):
            SuiteCell("a", "bogus", "energy", 1, "cocco", 0.002, "tiny")
        with pytest.raises(ConfigError):
            SuiteCell("a", "separate", "energy", 1, "bogus", 0.002, "tiny")
        with pytest.raises(ConfigError):
            SuiteCell("a", "separate", "energy", 0, "cocco", 0.002, "tiny")
        with pytest.raises(ConfigError):
            SuiteMatrix(networks=())


# ---------------------------------------------------------------------------
class TestSerialCampaign:
    def test_runs_all_cells_and_reports(self, tmp_path):
        outcome = run_suite(MATRIX, tmp_path / "reg")
        assert outcome.total == 4
        assert outcome.completed == 4
        assert outcome.failed == 0
        assert all(row[-1] == "complete" for row in report_rows(outcome))

    def test_restart_skips_completed_cells(self, tmp_path):
        first = run_suite(MATRIX, tmp_path / "reg")
        second = run_suite(MATRIX, tmp_path / "reg")
        assert second.skipped == 4
        assert second.completed == 0
        assert report_rows(second) == report_rows(first)

    def test_partial_registry_resumes_only_missing(self, tmp_path):
        subset = SuiteMatrix(
            networks=("vgg16",), schemes=("cocco", "sa"), scale="tiny", seed=0
        )
        run_suite(subset, tmp_path / "reg")
        outcome = run_suite(MATRIX, tmp_path / "reg")
        assert outcome.skipped == 2
        assert outcome.completed == 2
        clean = run_suite(MATRIX, tmp_path / "clean")
        assert report_rows(outcome) == report_rows(clean)

    def test_streamed_history_in_registry(self, tmp_path):
        run_suite(MATRIX, tmp_path / "reg")
        registry = RunRegistry(tmp_path / "reg")
        cocco = MATRIX.cells()[0]
        run = registry.load(cocco.config_dict(), cocco.seed(MATRIX.seed))
        generations = [e["generation"] for e in run.read_history()]
        expected = SCALES["tiny"]
        assert generations[0] == 0
        assert (
            generations[-1]
            == expected.ga_generations * expected.rs_candidates
        )

    def test_failed_cell_reported_not_completed(self, tmp_path):
        bad = SuiteMatrix(networks=("no_such_model",), scale="tiny")
        outcome = run_suite(bad, tmp_path / "reg")
        assert outcome.failed == 1
        assert outcome.completed == 0
        assert outcome.errors
        row = report_rows(outcome)[0]
        assert row[-1] in ("failed", "incomplete")

    def test_durable_failure_is_terminal_on_rerun(self, tmp_path):
        """A re-run reports a failed cell's stored error; it does not run
        the cell again."""
        bad = SuiteMatrix(
            networks=("vgg16", "no_such_model"), schemes=("sa",), scale="tiny"
        )
        first = run_suite(bad, tmp_path / "reg")
        second = run_suite(bad, tmp_path / "reg")
        victim = bad.cells()[1]
        node = RunRegistry(tmp_path / "reg").run_node(
            victim.config_dict(), victim.seed(bad.seed)
        )
        kinds = [
            record["kind"]
            for record in iter_jsonl_text(node.read_text(TELEMETRY_FILENAME))
        ]
        assert kinds.count("cell.start") == 1
        assert second.rounds == 0
        assert (second.skipped, second.completed, second.failed) == (1, 0, 1)
        assert report_rows(second) == report_rows(first)
        assert report_rows(second)[1][-1] == "failed"
        assert second.errors == first.errors
        assert victim.cell_id in second.errors

    def test_report_consumable_by_viz_export(self, tmp_path):
        outcome = run_suite(MATRIX, tmp_path / "reg")
        path = write_result(outcome.report, tmp_path / "report.json")
        loaded = read_result_json(path)
        assert loaded.rows == [tuple(r) for r in outcome.report.rows]
        csv_path = write_result(outcome.report, tmp_path / "report.csv")
        assert csv_path.read_text().startswith("network,")


# ---------------------------------------------------------------------------
class TestMidCellResume:
    def test_cocco_cell_resumes_from_checkpoint_bit_identically(self, tmp_path):
        """An interrupted GA cell continues from checkpoint.json and
        produces exactly the result of an uninterrupted cell."""
        cell = SuiteCell(
            network="vgg16", mode="separate", metric="energy",
            bytes_per_element=1, scheme="cocco", alpha=0.002, scale="tiny",
        )
        seed = cell.seed(0)
        scale = SCALES["tiny"]

        # Reconstruct the cell's exact engine and capture a mid-run
        # checkpoint, as if the process died after generation 2.
        evaluator = Evaluator(get_model(cell.network), cell_accelerator(cell))
        problem = OptimizationProblem(
            evaluator=evaluator, metric=Metric.ENERGY, alpha=cell.alpha,
            space=CapacitySpace.paper_separate(),
        )
        checkpoints = {}
        GeneticEngine(problem, scale.co_opt_ga_config(seed=seed)).run(
            on_generation=lambda ck: checkpoints.__setitem__(ck.generation, ck)
        )

        interrupted = RunRegistry(tmp_path / "interrupted")
        run = interrupted.open_run(cell.config_dict(), seed)
        for generation in range(0, 3):
            run.log_history({"generation": generation, "evaluations": 0,
                             "best_cost": 0.0})
        run.save_checkpoint(ga_checkpoint_to_dict(checkpoints[2]))

        resumed_row = run_cell(cell, 0, interrupted)
        clean_row = run_cell(cell, 0, RunRegistry(tmp_path / "clean"))
        assert resumed_row == clean_row

        # History was stitched: one entry per generation, no duplicates.
        generations = [
            e["generation"]
            for e in interrupted.load(cell.config_dict(), seed).read_history()
        ]
        assert generations == sorted(set(generations))

    def test_completed_cell_returns_stored_result(self, tmp_path):
        cell = SuiteCell(
            network="vgg16", mode="separate", metric="energy",
            bytes_per_element=1, scheme="sa", alpha=0.002, scale="tiny",
        )
        registry = RunRegistry(tmp_path / "reg")
        first = run_cell(cell, 0, registry)
        # mutate nothing: a second call must be a pure read
        result_file = (
            tmp_path / "reg" / registry.run_name(cell.config_dict(), cell.seed(0))
            / "result.json"
        )
        before = result_file.read_text()
        second = run_cell(cell, 0, registry)
        assert second == first
        assert result_file.read_text() == before


# ---------------------------------------------------------------------------
class TestWorkerDeath:
    """Fault injection: a worker hard-exits mid-cell (like an OOM kill)."""

    FAULTY = SuiteMatrix(
        networks=("vgg16", "googlenet"), schemes=("sa",), scale="tiny", seed=0
    )

    def clean_rows(self, tmp_path):
        # computed BEFORE the fault env var is set: with it set, a
        # serial run would hard-exit the test process itself
        assert FAULT_ENV not in os.environ
        return report_rows(run_suite(self.FAULTY, tmp_path / "clean"))

    def test_killed_cell_retried_in_same_campaign(self, tmp_path, monkeypatch):
        clean = self.clean_rows(tmp_path)
        monkeypatch.setenv(FAULT_ENV, "googlenet")
        outcome = run_suite(self.FAULTY, tmp_path / "reg", workers=2)
        assert outcome.rounds >= 2  # the broken pool forced a retry round
        assert outcome.failed == 0
        assert report_rows(outcome) == clean

    def test_killed_cell_never_recorded_complete(self, tmp_path, monkeypatch):
        # The victim kills its worker on every attempt: the fault hook
        # fires once per marker, and a thread keeps deleting the marker.
        clean = self.clean_rows(tmp_path)
        monkeypatch.setenv(FAULT_ENV, "googlenet")
        registry = RunRegistry(tmp_path / "reg")
        cells = self.FAULTY.cells()
        victim = next(c for c in cells if c.network == "googlenet")
        node = registry.run_node(
            victim.config_dict(), victim.seed(self.FAULTY.seed)
        )
        # One (broke, settled cells after it) pair per round.
        rounds: list[tuple[bool, int]] = []
        pool_map = ProcessPoolBackend.map

        def counting_map(backend, task, items):
            broke = False
            try:
                return pool_map(backend, task, items)
            except BrokenProcessPool:
                broke = True
                raise
            finally:
                progress = campaign_progress(registry, cells, self.FAULTY.seed)
                rounds.append((broke, settled_cells(progress)))

        monkeypatch.setattr(ProcessPoolBackend, "map", counting_map)
        stop = threading.Event()

        def rearm() -> None:
            while not stop.wait(0.01):
                node.delete("fault-attempted")

        thread = threading.Thread(target=rearm, daemon=True)
        thread.start()
        try:
            outcome = run_suite(self.FAULTY, tmp_path / "reg", workers=2)
        finally:
            stop.set()
            thread.join()
        assert outcome.failed >= 1
        assert not registry.is_complete(
            victim.config_dict(), victim.seed(self.FAULTY.seed)
        )
        assert outcome.errors[victim.cell_id][0] == "incomplete"
        # It stopped at the first two broken rounds in a row with no
        # cell settling between them.
        assert outcome.rounds == len(rounds) >= 2
        settled = [0] + [count for _, count in rounds]
        stops = [
            k for k in range(1, len(rounds))
            if rounds[k - 1][0] and rounds[k][0]
            and settled[k + 1] == settled[k]
        ]
        assert stops and stops[0] == len(rounds) - 1
        # resuming the campaign completes it (the fault fires only once)
        resumed = run_suite(self.FAULTY, tmp_path / "reg", workers=2)
        assert resumed.failed == 0
        assert report_rows(resumed) == clean


# ---------------------------------------------------------------------------
class TestCrashBound:
    """The pool runner stops once ``workers`` rounds in a row have broken
    with no cell completing or failing since the previous broken round.

    A stand-in backend breaks on scripted rounds: ``script[i]`` is the
    number of cells round ``i`` runs before its pool breaks, or ``None``
    for a clean round.
    """

    MATRIX = SuiteMatrix(
        networks=("vgg16",), schemes=("cocco", "sa", "rs"), scale="tiny",
        seed=0,
    )

    def scripted(self, tmp_path, monkeypatch, script, workers):
        rounds = []

        class ScriptedBackend:
            def map(self, task, items):
                settle = script[len(rounds)]
                rounds.append(len(items))
                if settle is None:
                    return [task(item) for item in items]
                for item in items[:settle]:
                    task(item)
                raise BrokenProcessPool("scripted worker death")

            def close(self) -> None:
                pass

        monkeypatch.setattr(
            "repro.runs.suite.resolve_backend",
            lambda count: ScriptedBackend(),
        )
        return run_suite(self.MATRIX, tmp_path / "reg", workers=workers), rounds

    def test_broken_rounds_separated_by_a_settled_cell_go_on(
        self, tmp_path, monkeypatch
    ):
        clean = run_suite(self.MATRIX, tmp_path / "clean")
        outcome, rounds = self.scripted(
            tmp_path, monkeypatch, [0, 1, 1, None], workers=2
        )
        assert rounds == [3, 3, 2, 1]
        assert (outcome.rounds, outcome.completed, outcome.failed) == (4, 3, 0)
        assert report_rows(outcome) == report_rows(clean)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_broken_rounds_in_a_row_stop(
        self, tmp_path, monkeypatch, workers
    ):
        script = [0, 1] + [0] * (workers - 1)
        outcome, rounds = self.scripted(
            tmp_path, monkeypatch, script, workers
        )
        assert rounds == [3, 3] + [2] * (workers - 1)
        assert outcome.rounds == workers + 1
        assert (outcome.completed, outcome.failed) == (1, 2)
        assert [state for state, _ in outcome.errors.values()] == [
            "incomplete", "incomplete"
        ]


# ---------------------------------------------------------------------------
class TestShardedIdentity:
    def test_worker_count_does_not_change_results(self, tmp_path):
        serial = run_suite(MATRIX, tmp_path / "serial", workers=1)
        sharded = run_suite(MATRIX, tmp_path / "sharded", workers=2)
        assert report_rows(serial) == report_rows(sharded)

    def test_merged_report_matches_registry_state(self, tmp_path):
        run_suite(MATRIX, tmp_path / "reg")
        report = merged_report(MATRIX, RunRegistry(tmp_path / "reg"))
        stored = json.loads(
            (tmp_path / "reg" / "report.json").read_text()
        ) if (tmp_path / "reg" / "report.json").exists() else None
        # run_suite doesn't write report.json itself (the CLI does);
        # what matters is merging is a pure read of the registry.
        assert stored is None
        again = merged_report(MATRIX, RunRegistry(tmp_path / "reg"))
        assert report.rows == again.rows

    def test_task_keeps_one_registry_per_process(self, tmp_path):
        """Cells share the task's registry, and with it the registry's
        warm-file views; a pickled copy (what a pool worker gets) builds
        its own."""
        task = SuiteCellTask(MATRIX, tmp_path / "reg")
        first, second = MATRIX.cells()[:2]
        task((first, None))
        registry = task._registry
        task((second, None))
        assert task._registry is registry
        assert pickle.loads(pickle.dumps(task))._registry is None


# ---------------------------------------------------------------------------
class TestSACellResume:
    def test_sa_cell_resumes_from_checkpoint_bit_identically(self, tmp_path):
        """An interrupted SA cell continues from checkpoint.json and
        produces exactly the result of an uninterrupted cell."""
        from repro.ga.annealing import simulated_annealing
        from repro.runs.checkpoint import sa_checkpoint_to_dict

        cell = SuiteCell(
            network="vgg16", mode="separate", metric="energy",
            bytes_per_element=1, scheme="sa", alpha=0.002, scale="tiny",
        )
        seed = cell.seed(0)
        scale = SCALES["tiny"]

        # capture the cell's exact chain and a mid-run checkpoint, as if
        # the process died at step 25
        problem = OptimizationProblem(
            evaluator=Evaluator(get_model(cell.network), cell_accelerator(cell)),
            metric=Metric.ENERGY, alpha=cell.alpha,
            space=CapacitySpace.paper_separate(),
        )
        checkpoints = {}
        simulated_annealing(
            problem, scale.co_opt_sa_config(seed=seed),
            on_step=lambda ck: checkpoints.__setitem__(ck.step, ck),
        )
        mid = checkpoints[25]
        assert 0 < mid.step < scale.co_opt_sa_config().steps

        interrupted = RunRegistry(tmp_path / "interrupted")
        run = interrupted.open_run(cell.config_dict(), seed)
        for step in (0, 25, 30):  # 30: an orphaned post-checkpoint line
            run.log_history({"step": step, "evaluations": 0, "best_cost": 0.0})
        run.save_checkpoint(sa_checkpoint_to_dict(mid))

        resumed_row = run_cell(cell, 0, interrupted)
        clean_row = run_cell(cell, 0, RunRegistry(tmp_path / "clean"))
        assert resumed_row == clean_row

        # history was stitched by step: no duplicates, no orphans
        steps = [
            e["step"]
            for e in interrupted.load(cell.config_dict(), seed).read_history()
        ]
        assert steps == sorted(set(steps))

    def test_sa_cell_history_streams_steps(self, tmp_path):
        cell = SuiteCell(
            network="vgg16", mode="separate", metric="energy",
            bytes_per_element=1, scheme="sa", alpha=0.002, scale="tiny",
        )
        registry = RunRegistry(tmp_path / "reg")
        run_cell(cell, 0, registry)
        entries = registry.load(
            cell.config_dict(), cell.seed(0)
        ).read_history()
        steps = [e["step"] for e in entries]
        assert steps[0] == 0
        assert steps[-1] == SCALES["tiny"].co_opt_sa_config().steps


# ---------------------------------------------------------------------------
class TestBudgetedCampaign:
    def test_budget_caps_total_evaluations_exactly(self, tmp_path):
        from repro.distrib.budget import campaign_progress

        budget = 150  # well below the ~210 the matrix needs
        outcome = run_suite(MATRIX, tmp_path / "reg", budget=budget)
        assert outcome.exhausted == 4
        assert outcome.completed == 0
        registry = RunRegistry(tmp_path / "reg")
        progress = campaign_progress(registry, MATRIX.cells(), MATRIX.seed)
        assert sum(p.evaluations for p in progress.values()) == budget
        # every cell kept its resume state
        for cell in MATRIX.cells():
            assert registry.load(
                cell.config_dict(), cell.seed(MATRIX.seed)
            ).has_checkpoint

    def test_refunds_flow_from_converged_to_unconverged(self, tmp_path):
        # 220 > need of the sa cells (49 each at tiny scale): their
        # refunds must top up the hungrier cocco cells (56 each)
        outcome = run_suite(MATRIX, tmp_path / "reg", budget=220)
        assert outcome.exhausted == 0
        assert outcome.completed == 4

    def test_budgeted_identical_for_any_worker_count(self, tmp_path):
        budget = 170
        serial = run_suite(MATRIX, tmp_path / "serial", budget=budget)
        sharded = run_suite(MATRIX, tmp_path / "sharded", budget=budget, workers=2)
        assert report_rows(serial) == report_rows(sharded)

    def test_exhausted_campaign_resumes_under_larger_budget(self, tmp_path):
        small = run_suite(MATRIX, tmp_path / "reg", budget=150)
        assert small.exhausted == 4
        grown = run_suite(MATRIX, tmp_path / "reg", budget=100_000)
        assert grown.exhausted == 0
        assert grown.failed == 0
        # the grown campaign is deterministic: a second registry walking
        # the same 150 -> 100k budget schedule merges identically
        first = run_suite(MATRIX, tmp_path / "other", budget=150)
        second = run_suite(MATRIX, tmp_path / "other", budget=100_000)
        assert report_rows(second) == report_rows(grown)

    def test_unbudgeted_path_unchanged(self, tmp_path):
        plain = run_suite(MATRIX, tmp_path / "plain")
        budgeted = run_suite(MATRIX, tmp_path / "budgeted", budget=10_000_000)
        assert report_rows(plain) == report_rows(budgeted)

    def test_failed_cells_terminate_budget_rounds(self, tmp_path):
        bad = SuiteMatrix(
            networks=("vgg16", "no_such_model"), schemes=("sa",), scale="tiny"
        )
        outcome = run_suite(bad, tmp_path / "reg", budget=400)
        assert outcome.failed == 1
        assert outcome.completed == 1
        registry = RunRegistry(tmp_path / "reg")
        victim = bad.cells()[1]
        assert registry.has_error(
            victim.config_dict(), victim.seed(bad.seed)
        )
        row = report_rows(outcome)[1]
        assert row[-1] == "failed"

    def test_atomic_cell_resumes_from_a_checkpoint_past_its_cap(self, tmp_path):
        # nsga runs whole: under budget 10 its generation-0 checkpoint
        # already records 8 evaluations against an allocation of 5. A
        # kill after that checkpoint must not leave the cell exhausted.
        matrix = SuiteMatrix(
            networks=("googlenet",), schemes=("nsga", "sa"), scale="tiny"
        )
        clean = run_suite(matrix, tmp_path / "reg", budget=10)
        nsga = matrix.cells()[0]
        node = RunRegistry(tmp_path / "reg").run_node(
            nsga.config_dict(), nsga.seed(matrix.seed)
        )
        assert report_rows(clean)[0][-1] == "complete"
        assert node.exists("checkpoint.json")
        node.delete("result.json")
        resumed = run_suite(matrix, tmp_path / "reg", budget=10)
        assert resumed.rounds == 1
        assert nsga.cell_id not in resumed.errors
        assert report_rows(resumed) == report_rows(clean)


# ---------------------------------------------------------------------------
class TestIslandsCellResume:
    def cell(self):
        return SuiteCell(
            network="vgg16", mode="separate", metric="energy",
            bytes_per_element=1, scheme="islands", alpha=0.002, scale="tiny",
        )

    def test_islands_cell_resumes_from_checkpoint_bit_identically(
        self, tmp_path
    ):
        """An interrupted islands cell continues from its composite
        checkpoint.json and produces exactly the result of an
        uninterrupted cell."""
        from repro.ga.islands import checkpoint_tick, island_search
        from repro.runs.checkpoint import islands_checkpoint_to_dict
        from repro.ga.problem import OptimizationProblem
        from repro.cost.objective import Metric as _Metric

        cell = self.cell()
        seed = cell.seed(0)
        scale = SCALES["tiny"]
        config = scale.islands_config(seed=seed)

        evaluator = Evaluator(get_model(cell.network), cell_accelerator(cell))
        problem = OptimizationProblem(
            evaluator=evaluator, metric=_Metric.ENERGY, alpha=cell.alpha,
            space=CapacitySpace.paper_separate(),
        )
        checkpoints = {}
        island_search(
            problem, config,
            on_generation=lambda ck: checkpoints.__setitem__(
                checkpoint_tick(ck, config), ck
            ),
        )
        mid_tick = sorted(checkpoints)[len(checkpoints) // 2]
        assert 0 < mid_tick < max(checkpoints)

        interrupted = RunRegistry(tmp_path / "interrupted")
        run = interrupted.open_run(cell.config_dict(), seed)
        for tick in (0, mid_tick, mid_tick + 1):  # +1: orphaned line
            run.log_history({"tick": tick, "evaluations": 0, "best_cost": 0.0})
        run.save_checkpoint(
            islands_checkpoint_to_dict(checkpoints[mid_tick])
        )

        resumed_row = run_cell(cell, 0, interrupted)
        clean_row = run_cell(cell, 0, RunRegistry(tmp_path / "clean"))
        assert resumed_row == clean_row

        # history was stitched by tick: no duplicates, no orphans
        ticks = [
            e["tick"]
            for e in interrupted.load(cell.config_dict(), seed).read_history()
        ]
        assert ticks == sorted(set(ticks))

    def test_islands_cell_killed_mid_run_retried_identically(
        self, tmp_path, monkeypatch
    ):
        matrix = SuiteMatrix(
            networks=("vgg16",), schemes=("islands",), scale="tiny", seed=0
        )
        assert FAULT_ENV not in os.environ
        clean = report_rows(run_suite(matrix, tmp_path / "clean"))
        monkeypatch.setenv(FAULT_ENV, "islands")
        outcome = run_suite(matrix, tmp_path / "reg", workers=2)
        assert outcome.failed == 0
        assert report_rows(outcome) == clean


class TestTwoStepCellResume:
    @pytest.mark.parametrize("scheme", ["rs", "gs"])
    def test_cell_resumes_from_checkpoint_bit_identically(
        self, tmp_path, scheme
    ):
        """An interrupted rs/gs cell continues mid-candidate from its
        candidate-cursor checkpoint, bit-identically."""
        from repro.dse.two_step import (
            checkpoint_tick,
            grid_search_ga,
            random_search_ga,
        )
        from repro.runs.checkpoint import two_step_checkpoint_to_dict
        from repro.cost.objective import Metric as _Metric

        cell = SuiteCell(
            network="vgg16", mode="separate", metric="energy",
            bytes_per_element=1, scheme=scheme, alpha=0.002, scale="tiny",
        )
        seed = cell.seed(0)
        scale = SCALES["tiny"]
        ga_config = scale.ga_config(seed=seed)

        evaluator = Evaluator(get_model(cell.network), cell_accelerator(cell))
        checkpoints = {}
        hook = lambda ck: checkpoints.__setitem__(
            checkpoint_tick(ck, ga_config), ck
        )
        if scheme == "rs":
            random_search_ga(
                evaluator, CapacitySpace.paper_separate(),
                metric=_Metric.ENERGY, alpha=cell.alpha,
                num_candidates=scale.rs_candidates, ga_config=ga_config,
                seed=seed, on_checkpoint=hook,
            )
        else:
            grid_search_ga(
                evaluator, CapacitySpace.paper_separate(),
                metric=_Metric.ENERGY, alpha=cell.alpha,
                stride=scale.gs_stride,
                max_candidates=scale.gs_max_candidates,
                ga_config=ga_config, on_checkpoint=hook,
            )
        mid_tick = sorted(checkpoints)[len(checkpoints) // 2]
        mid = checkpoints[mid_tick]
        assert mid.candidate >= 1  # genuinely mid-candidate-list

        interrupted = RunRegistry(tmp_path / "interrupted")
        run = interrupted.open_run(cell.config_dict(), seed)
        for tick in (0, mid_tick, mid_tick + 1):
            run.log_history({"tick": tick, "evaluations": 0, "best_cost": 0.0})
        run.save_checkpoint(two_step_checkpoint_to_dict(mid, kind=scheme))

        resumed_row = run_cell(cell, 0, interrupted)
        clean_row = run_cell(cell, 0, RunRegistry(tmp_path / "clean"))
        assert resumed_row == clean_row

        ticks = [
            e["tick"]
            for e in interrupted.load(cell.config_dict(), seed).read_history()
        ]
        assert ticks == sorted(set(ticks))

    def test_two_step_cell_killed_mid_run_retried_identically(
        self, tmp_path, monkeypatch
    ):
        matrix = SuiteMatrix(
            networks=("vgg16",), schemes=("rs", "gs"), scale="tiny", seed=0
        )
        assert FAULT_ENV not in os.environ
        clean = report_rows(run_suite(matrix, tmp_path / "clean"))
        monkeypatch.setenv(FAULT_ENV, "/rs/")
        outcome = run_suite(matrix, tmp_path / "reg", workers=2)
        assert outcome.failed == 0
        assert report_rows(outcome) == clean


# ---------------------------------------------------------------------------
class TestBudgetedNewSchemes:
    """`--budget` now caps *every* scheme except nsga exactly."""

    MATRIX = SuiteMatrix(
        networks=("vgg16",), schemes=("islands", "rs", "gs"),
        scale="tiny", seed=0,
    )

    def total_evaluations(self, registry_root):
        from repro.distrib.budget import campaign_progress

        registry = RunRegistry(registry_root)
        progress = campaign_progress(
            registry, self.MATRIX.cells(), self.MATRIX.seed
        )
        return sum(p.evaluations for p in progress.values())

    def test_budget_caps_every_scheme_exactly(self, tmp_path):
        budget = 60  # well below the ~220 the matrix needs
        outcome = run_suite(self.MATRIX, tmp_path / "reg", budget=budget)
        assert outcome.exhausted == 3
        assert outcome.completed == 0
        assert self.total_evaluations(tmp_path / "reg") == budget
        registry = RunRegistry(tmp_path / "reg")
        for cell in self.MATRIX.cells():
            assert registry.load(
                cell.config_dict(), cell.seed(self.MATRIX.seed)
            ).has_checkpoint

    def test_exhausted_cells_resume_under_larger_budget(self, tmp_path):
        small = run_suite(self.MATRIX, tmp_path / "reg", budget=60)
        assert small.exhausted == 3
        grown = run_suite(self.MATRIX, tmp_path / "reg", budget=100_000)
        assert grown.exhausted == 0
        assert grown.failed == 0
        # deterministic: a second registry walking the same 60 -> 100k
        # schedule merges identically
        run_suite(self.MATRIX, tmp_path / "other", budget=60)
        second = run_suite(self.MATRIX, tmp_path / "other", budget=100_000)
        assert report_rows(second) == report_rows(grown)

    def test_budgeted_identical_for_any_worker_count(self, tmp_path):
        budget = 80
        serial = run_suite(self.MATRIX, tmp_path / "serial", budget=budget)
        sharded = run_suite(
            self.MATRIX, tmp_path / "sharded", budget=budget, workers=2
        )
        assert report_rows(serial) == report_rows(sharded)
        assert self.total_evaluations(tmp_path / "serial") == budget
        assert self.total_evaluations(tmp_path / "sharded") == budget
