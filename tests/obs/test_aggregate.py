"""Campaign aggregation over a synthetic mixed-state registry.

Fabricates every cell state the reader must survive — completed,
leased-live with an enriched heartbeat, leased-expired, durably
errored, mid-checkpoint with a torn history tail — and checks that
:func:`repro.obs.aggregate.build_view` folds them into one coherent
view without ever writing to the registry.
"""

from __future__ import annotations

import json

import pytest

from repro.distrib.clock import FakeClock
from repro.distrib.lease import renew_lease, try_acquire_lease
from repro.obs import TELEMETRY_FILENAME
from repro.obs.aggregate import (
    CampaignView,
    build_view,
    cell_series_text,
    iter_jsonl_text,
)
from repro.runs.registry import RunRegistry
from repro.runs.suite import SuiteMatrix


class TestIterJsonl:
    def test_missing_file_yields_nothing(self):
        # A missing key reads as None through every transport.
        assert list(iter_jsonl_text(None)) == []
        assert list(iter_jsonl_text("")) == []

    def test_reads_every_complete_line(self):
        text = '{"a": 1}\n{"a": 2}\n{"a": 3}\n'
        assert [r["a"] for r in iter_jsonl_text(text)] == [1, 2, 3]

    def test_torn_final_line_skipped(self):
        text = '{"a": 1}\n{"a": 2, "trunc'
        assert [r["a"] for r in iter_jsonl_text(text)] == [1]

    def test_torn_line_parsing_as_scalar_skipped(self):
        # A record truncated inside a numeric field parses as a bare
        # scalar; it must not surface as a record.
        assert [r["a"] for r in iter_jsonl_text('{"a": 1}\n42')] == [1]

    def test_non_object_lines_skipped(self):
        text = '[1, 2]\n"text"\n{"a": 1}\n'
        assert list(iter_jsonl_text(text)) == [{"a": 1}]

    def test_garbage_interleaved_lines_skipped(self):
        text = '{"a": 1}\nnot json at all\n{"a": 2}\n'
        assert [r["a"] for r in iter_jsonl_text(text)] == [1, 2]


class TestCellSeries:
    def test_progress_key_variants(self):
        series = cell_series_text(
            "c",
            '{"generation": 0, "evaluations": 8, "best_cost": 9.0}\n'
            '{"generation": 1, "evaluations": 16, "best_cost": 5.0}\n',
        )
        assert [p.progress for p in series.points] == [0, 1]
        assert series.best_cost == 5.0
        assert series.evaluations == 16

    def test_step_and_tick_keys(self):
        steps = '{"step": 25, "evaluations": 26, "best_cost": 3.0}\n'
        ticks = '{"tick": 4, "evaluations": 10, "best_cost": 2.0}\n'
        assert cell_series_text("s", steps).points[0].progress == 25
        assert cell_series_text("t", ticks).points[0].progress == 4

    def test_empty_series(self):
        series = cell_series_text("c", None)
        assert series.points == ()
        assert series.best_cost is None
        assert series.evaluations is None


#: 6 cells: {cocco, sa} x {ema, energy} ... with one extra scheme pair.
MATRIX = SuiteMatrix(
    networks=("vgg16",),
    schemes=("cocco", "sa", "islands"),
    metrics=("ema", "energy"),
    scale="tiny",
    seed=0,
)


#: The fake time every lease of ``mixed_registry`` is written at; the
#: tests judge those leases by fake clocks read against it.
LEASE_TIME = 1000.0


@pytest.fixture()
def mixed_registry(tmp_path):
    """A registry with one cell in every state the reader must handle."""
    registry = RunRegistry(tmp_path / "reg")
    cells = MATRIX.cells()
    assert len(cells) == 6
    nodes = [
        registry.run_node(c.config_dict(), c.seed(MATRIX.seed))
        for c in cells
    ]

    # cells[0]: complete, with history and telemetry.
    run = registry.open_run(
        cells[0].config_dict(), cells[0].seed(MATRIX.seed)
    )
    run.log_history({"generation": 0, "evaluations": 10, "best_cost": 9.0})
    run.log_history({"generation": 1, "evaluations": 20, "best_cost": 4.0})
    run.finish(
        {"status": "complete", "num_evaluations": 20, "best_cost": 4.0}
    )
    nodes[0].write_atomic(
        TELEMETRY_FILENAME,
        json.dumps({"v": 1, "ts": 1.0, "kind": "cell.start"}) + "\n"
        + json.dumps(
            {
                "v": 1,
                "ts": 2.0,
                "kind": "span",
                "name": "evaluator.batch",
                "keys": 20,
                "cold": 5,
            }
        )
        + "\n"
        + json.dumps(
            {
                "v": 1,
                "ts": 3.0,
                "kind": "evaluator.stats",
                "stats": {"batch_calls": 2.0, "batch_hits": 15.0},
            }
        )
        + "\n"
        + json.dumps({"v": 1, "ts": 4.0, "kind": "cell.finish"})
        + "\n",
    )

    # cells[1]: leased, live heartbeat enriched with worker progress.
    lease_clock = FakeClock(now=LEASE_TIME)
    lease = try_acquire_lease(nodes[1], "worker-live", ttl=3600, clock=lease_clock)
    assert lease is not None
    assert renew_lease(
        lease,
        clock=lease_clock,
        extra={"evals_done": 120, "started_at": 1000.0},
    )
    run1 = registry.open_run(
        cells[1].config_dict(), cells[1].seed(MATRIX.seed)
    )
    run1.log_history({"step": 50, "evaluations": 51, "best_cost": 7.5})
    nodes[1].write_atomic(
        TELEMETRY_FILENAME,
        json.dumps(
            {
                "v": 1,
                "ts": 5.0,
                "kind": "lease.claim",
                "owner": "worker-live",
                "via": "fresh",
            }
        )
        + "\n"
        + json.dumps(
            {"v": 1, "ts": 5.5, "kind": "budget.grant", "cap": 100}
        )
        + "\n",
    )

    # cells[2]: leased but expired — its worker is presumed dead. The
    # telemetry stream ends in a torn line (SIGKILL mid-append).
    stale = try_acquire_lease(
        nodes[2], "worker-dead", ttl=0.0, clock=lease_clock
    )
    assert stale is not None
    nodes[2].write_atomic(
        TELEMETRY_FILENAME,
        json.dumps(
            {
                "v": 1,
                "ts": 6.0,
                "kind": "lease.claim",
                "owner": "worker-dead",
                "via": "stolen",
            }
        )
        + "\n"
        + '{"v": 1, "ts": 7.0, "kind": "lease.rel',  # torn
    )

    # cells[3]: durable error.
    registry.open_run(
        cells[3].config_dict(), cells[3].seed(MATRIX.seed)
    ).record_error("boom")

    # cells[4]: mid-checkpoint, unleased, history tail torn mid-append.
    run4 = registry.open_run(
        cells[4].config_dict(), cells[4].seed(MATRIX.seed)
    )
    run4.log_history({"generation": 0, "evaluations": 6, "best_cost": 8.0})
    run4.save_checkpoint({"kind": "ga", "evaluations": 6})
    nodes[4].write_atomic(
        "history.jsonl",
        nodes[4].read_text("history.jsonl")
        + '{"generation": 1, "evaluations": 12, "best_co',
    )

    # cells[5]: untouched (pending).
    return registry


class TestBuildView:
    def test_states_and_series(self, mixed_registry):
        view = build_view(MATRIX, mixed_registry, clock=lambda: 2000.0)
        states = [s.state for s in view.statuses]
        assert states == [
            "complete",
            "running",
            "stalled",
            "failed",
            "pending",
            "pending",
        ]
        assert view.tally == {
            "complete": 1,
            "running": 1,
            "stalled": 1,
            "failed": 1,
            "pending": 2,
        }
        cells = MATRIX.cells()
        complete = view.series[cells[0].cell_id]
        assert [p.best_cost for p in complete.points] == [9.0, 4.0]
        # The torn history tail of the mid-checkpoint cell reads as its
        # last complete line.
        torn = view.series[cells[4].cell_id]
        assert [p.progress for p in torn.points] == [0]
        assert view.best_cost == 4.0

    def test_worker_health(self, mixed_registry):
        view = build_view(MATRIX, mixed_registry, clock=lambda: 1600.0)
        workers = {w.owner: w for w in view.workers}
        assert set(workers) == {"worker-live", "worker-dead"}
        live = workers["worker-live"]
        assert not live.stalled
        assert live.evals_done == 120
        # 120 evals over (1600 - 1000) seconds of the worker's clock.
        assert live.rate == pytest.approx(0.2)
        dead = workers["worker-dead"]
        assert dead.stalled
        assert dead.evals_done is None
        assert dead.rate is None

    def test_telemetry_totals(self, mixed_registry):
        view = build_view(MATRIX, mixed_registry, clock=lambda: 0.0)
        totals = view.telemetry
        # The torn lease.release line of the dead worker is invisible.
        assert totals.events == 7
        assert totals.claims == 2
        assert totals.steals == 1
        assert totals.releases == 0
        assert totals.grants == 1
        assert totals.cells_started == 1
        assert totals.cells_finished == 1
        assert totals.spans == 1
        assert totals.genomes_batched == 20
        assert totals.genomes_cold == 5
        assert totals.batch_hit_rate == pytest.approx(0.75)
        assert totals.evaluator_stats["batch_hits"] == 15.0

    def test_leases_are_judged_by_the_callers_clock(self, tmp_path):
        # A lease taken 5 s ago on the caller's clock is live, whatever
        # the wall clock says.
        clock = FakeClock()
        registry = RunRegistry(tmp_path / "reg")
        cell = MATRIX.cells()[0]
        node = registry.run_node(cell.config_dict(), cell.seed(MATRIX.seed))
        assert try_acquire_lease(node, "worker", ttl=30, clock=clock)
        clock.advance(5.0)
        status = build_view(MATRIX, registry, clock=clock).statuses[0]
        assert status.state == "running"
        assert status.heartbeat_age == pytest.approx(5.0)

    def test_budget_spend_and_refund(self, mixed_registry):
        # 6 cells, 120 samples: 20 each. The complete cell spent all 20
        # (no refund); the checkpointed cell durably spent 6.
        view = build_view(
            MATRIX, mixed_registry, budget=120, clock=lambda: 0.0
        )
        assert view.budget == 120
        assert view.spent == 26  # 20 complete + 6 checkpointed
        assert view.refunded == 20  # the failed cell's full allocation
        assert not view.out_of_budget

    def test_view_is_read_only(self, mixed_registry, tmp_path):
        def tree(root):
            return sorted(
                (p.relative_to(root), p.stat().st_size)
                for p in root.rglob("*")
                if p.is_file()
            )

        before = tree(tmp_path / "reg")
        build_view(MATRIX, mixed_registry, budget=120, clock=lambda: 0.0)
        assert tree(tmp_path / "reg") == before

    def test_empty_registry(self, tmp_path):
        view = build_view(
            MATRIX, RunRegistry(tmp_path / "fresh"), clock=lambda: 0.0
        )
        assert isinstance(view, CampaignView)
        assert all(s.state == "pending" for s in view.statuses)
        assert view.spent == 0
        assert view.telemetry.events == 0
        assert view.workers == ()
        assert view.best_cost is None
