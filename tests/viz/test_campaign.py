"""The live campaign status view: states, tails, rendering."""

from __future__ import annotations

import json
import time

import pytest

from repro.distrib.budget import (
    campaign_progress,
    claimable_cells,
    compute_allocations,
)
from repro.distrib.lease import try_acquire_lease
from repro.runs.registry import RunRegistry
from repro.runs.suite import SuiteMatrix, classify_campaign, run_cell, run_suite
from repro.runs.transport import FsTransport, RunNode
from repro.viz.campaign import campaign_snapshot, render_campaign, tail_jsonl_node


MATRIX = SuiteMatrix(
    networks=("vgg16",), schemes=("cocco", "sa"), scale="tiny", seed=0
)


@pytest.fixture
def node(tmp_path):
    return RunNode(FsTransport(tmp_path / "registry"), "cell")


def _snapshot(matrix, registry, budget=None):
    """The status view over a fresh progress probe, as its callers fold it."""
    cells = matrix.cells()
    progress = campaign_progress(registry, cells, matrix.seed)
    budget_view = (
        compute_allocations(cells, budget, progress)
        if budget is not None
        else None
    )
    return campaign_snapshot(matrix, registry, progress, budget_view)


def _tail(node, text):
    node.write_atomic("h.jsonl", text)
    return tail_jsonl_node(node, "h.jsonl")


class TestTailJsonl:
    def test_missing_file(self, node):
        assert tail_jsonl_node(node, "none.jsonl") is None

    def test_last_line_wins(self, node):
        text = '{"generation": 0}\n{"generation": 7}\n'
        assert _tail(node, text) == {"generation": 7}

    def test_torn_final_line_falls_back(self, node):
        text = '{"generation": 3}\n{"generation": 4, "trunc'
        assert _tail(node, text) == {"generation": 3}

    def test_long_file_reads_only_tail(self, node):
        text = "".join(json.dumps({"generation": i}) + "\n" for i in range(5000))
        assert _tail(node, text) == {"generation": 4999}

    def test_torn_line_parsing_as_scalar_is_skipped(self, node):
        # A record truncated inside a numeric field still parses — as a
        # bare scalar. It must be skipped, not returned (regression: a
        # non-dict return crashed the snapshot's .get() calls).
        text = '{"generation": 3}\n{"best_cost": 17'
        assert _tail(node, text) == {"generation": 3}

    def test_unterminated_final_line_never_wins(self, node):
        # Writers emit line+"\n" in one write, so a final line without
        # the newline is torn even when its text parses as an object.
        text = '{"generation": 3}\n{"generation": 4}'
        assert _tail(node, text) == {"generation": 3}

    def test_complete_scalar_line_is_skipped(self, node):
        assert _tail(node, '{"generation": 3}\n42\n') == {"generation": 3}

    def test_all_torn_returns_none(self, node):
        assert _tail(node, '{"generation": 0') is None


class TestSnapshot:
    def test_pending_then_complete(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        before = _snapshot(MATRIX, registry)
        assert [s.state for s in before] == ["pending", "pending"]
        run_suite(MATRIX, tmp_path / "reg")
        after = _snapshot(MATRIX, registry)
        assert [s.state for s in after] == ["complete", "complete"]
        assert all(s.evaluations for s in after)

    def test_running_and_stalled_states(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        cells = MATRIX.cells()
        fresh = registry.run_node(
            cells[0].config_dict(), cells[0].seed(MATRIX.seed)
        )
        stale = registry.run_node(
            cells[1].config_dict(), cells[1].seed(MATRIX.seed)
        )
        assert try_acquire_lease(fresh, "alive", ttl=60) is not None
        assert try_acquire_lease(stale, "dead", ttl=0.01) is not None
        time.sleep(0.05)
        snapshot = _snapshot(MATRIX, registry)
        assert snapshot[0].state == "running"
        assert snapshot[0].owner == "alive"
        assert snapshot[1].state == "stalled"

    def test_failed_state(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        cell = MATRIX.cells()[0]
        run = registry.open_run(cell.config_dict(), cell.seed(MATRIX.seed))
        run.record_error("boom")
        snapshot = _snapshot(MATRIX, registry)
        assert snapshot[0].state == "failed"

    def test_exhausted_state_with_budget(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        budget = 40  # 20 per cell: both pause at their caps
        run_suite(MATRIX, tmp_path / "reg", budget=budget)
        snapshot = _snapshot(MATRIX, registry, budget=budget)
        assert [s.state for s in snapshot] == ["exhausted", "exhausted"]
        assert all(s.sample_cap == 20 for s in snapshot)
        assert all(s.evaluations >= s.sample_cap for s in snapshot)

    def test_exhausted_is_the_schedulers_verdict(self, tmp_path):
        """A kill between a history append and its checkpoint save
        leaves the history tail ahead of the checkpoint. The status view
        must say what the scheduler says, and the scheduler counts the
        checkpoint: here the cell still has samples left."""
        matrix = SuiteMatrix(
            networks=("vgg16",), schemes=("cocco",), scale="tiny", seed=0
        )
        cells = matrix.cells()
        registry = RunRegistry(tmp_path / "reg")
        row = run_cell(cells[0], matrix.seed, registry, sample_cap=5)
        assert row["status"] == "exhausted"
        run = registry.load(cells[0].config_dict(), cells[0].seed(matrix.seed))
        run.log_history({"generation": 1, "evaluations": 20, "best_cost": 1.0})

        budget = 20
        progress = campaign_progress(registry, cells, matrix.seed)
        assert claimable_cells(cells, budget, progress) == [(cells[0], 20)]
        tally = classify_campaign(registry, cells, matrix.seed, budget)
        assert tally.incomplete == cells
        [status] = _snapshot(matrix, registry, budget=budget)
        assert status.state == "pending"
        assert status.sample_cap == 20
        assert status.evaluations == 20  # the streamed tail, as written

    def test_streamed_progress_surfaces(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        cell = MATRIX.cells()[0]
        run_cell(cell, MATRIX.seed, registry)
        # drop the completion marker to observe the mid-run view
        registry.run_node(cell.config_dict(), cell.seed(0)).delete("result.json")
        snapshot = _snapshot(MATRIX, registry)
        assert snapshot[0].state == "pending"
        assert snapshot[0].progress is not None
        assert snapshot[0].best_cost is not None


class TestRender:
    def test_table_contains_cells_and_tally(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        text = render_campaign(_snapshot(MATRIX, registry))
        assert "2 pending" in text
        assert "vgg16/separate/energy/b1/cocco" in text
        assert "state" in text
