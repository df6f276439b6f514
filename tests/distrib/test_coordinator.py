"""The coordinator: manifest, spawned fleets, reclaim, merged identity."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.distrib.clock import FakeClock
from repro.distrib.coordinator import (
    CoordinatorConfig,
    matrix_from_dict,
    matrix_to_dict,
    read_manifest,
    run_distributed,
    write_manifest,
)
from repro.distrib.lease import read_lease, try_acquire_lease
from repro.errors import ConfigError, ReproError
from repro.runs.registry import RunRegistry
from repro.runs.suite import FAULT_ENV, SuiteMatrix, run_suite


MATRIX = SuiteMatrix(
    networks=("vgg16", "googlenet"),
    schemes=("sa",),
    scale="tiny",
    seed=0,
)


def _records(node, kind: str) -> list[dict]:
    """The ``kind`` events of a registry node's telemetry stream."""
    text = node.read_text("telemetry.jsonl") or ""
    return [
        record
        for record in map(json.loads, text.splitlines())
        if record["kind"] == kind
    ]


class TestManifest:
    def test_matrix_round_trip(self):
        assert matrix_from_dict(matrix_to_dict(MATRIX)) == MATRIX

    def test_write_read(self, tmp_path):
        write_manifest(MATRIX, tmp_path / "reg", budget=500)
        matrix, budget = read_manifest(tmp_path / "reg")
        assert matrix == MATRIX
        assert budget == 500

    def test_missing_manifest_is_clean_error(self, tmp_path):
        with pytest.raises(ConfigError):
            read_manifest(tmp_path / "nowhere")


class TestRunDistributed:
    def test_spawned_fleet_matches_serial(self, tmp_path):
        serial = run_suite(MATRIX, tmp_path / "serial")
        outcome = run_distributed(
            MATRIX,
            tmp_path / "reg",
            config=CoordinatorConfig(
                spawn_workers=2, lease_ttl=5, poll_interval=0.05, timeout=180
            ),
        )
        assert outcome.failed == 0
        assert outcome.completed == 2
        assert outcome.report.rows == serial.report.rows
        # manifest was enqueued so external workers could have joined
        matrix, budget = read_manifest(tmp_path / "reg")
        assert matrix == MATRIX and budget is None

    def test_budgeted_cell_atomic_run_matches_serial(self, tmp_path):
        # nsga runs whole under any cap. Once its checkpoint passes the
        # one-sample allocation the campaign reads as out of budget while
        # the worker still runs the cell; its result lands during the
        # coordinator's join, and the report must include it.
        matrix = SuiteMatrix(
            networks=("googlenet",), schemes=("nsga",), scale="tiny", seed=0
        )
        serial = run_suite(matrix, tmp_path / "serial", budget=1)
        outcome = run_distributed(
            matrix,
            tmp_path / "reg",
            budget=1,
            config=CoordinatorConfig(
                spawn_workers=1, lease_ttl=5, poll_interval=0.01, timeout=180
            ),
        )
        assert serial.completed == 1
        assert outcome.report.rows == serial.report.rows
        assert outcome.completed == 1
        assert outcome.failed == outcome.exhausted == 0
        assert outcome.errors == {}

    def test_reclaims_expired_lease_of_dead_worker(self, tmp_path):
        # a "dead worker" holds a long-expired lease on the first cell
        registry = RunRegistry(tmp_path / "reg")
        cell = MATRIX.cells()[0]
        node = registry.run_node(cell.config_dict(), cell.seed(MATRIX.seed))
        assert try_acquire_lease(node, "dead", ttl=0.01) is not None
        time.sleep(0.05)
        outcome = run_distributed(
            MATRIX,
            tmp_path / "reg",
            config=CoordinatorConfig(
                spawn_workers=1, lease_ttl=5, poll_interval=0.05, timeout=180
            ),
        )
        assert outcome.failed == 0
        assert read_lease(node) is None
        # The coordinator reclaims nothing itself: a spawned worker's
        # claim stole the dead worker's lease.
        assert [
            claim["via"] for claim in _records(node, "lease.claim")
        ] == ["stolen"]
        clean = run_suite(MATRIX, tmp_path / "clean")
        assert outcome.report.rows == clean.report.rows

    def test_spawns_queue_sized_fleet(self, tmp_path):
        # Every worker that runs a cell is spawned against live queue
        # depth, and every spawn and retirement lands in the root
        # telemetry stream.
        outcome = run_distributed(
            MATRIX,
            tmp_path / "reg",
            config=CoordinatorConfig(
                spawn_workers=2, lease_ttl=5, poll_interval=0.05, timeout=180
            ),
        )
        assert outcome.failed == 0
        assert outcome.completed == 2
        assert any("elastic fleet spawned" in note for note in outcome.report.notes)
        scale = _records(RunRegistry(tmp_path / "reg").root_node(), "fleet.scale")
        spawned = sum(
            record["count"] for record in scale if record["action"] == "spawn"
        )
        assert 1 <= spawned <= 2
        (final,) = [record for record in scale if record["action"] == "final"]
        assert final["spawned"] == final["retired"] == spawned
        assert final["died"] == 0
        assert not [record for record in scale if record["action"] == "died"]
        clean = run_suite(MATRIX, tmp_path / "clean")
        assert outcome.report.rows == clean.report.rows

    def test_crash_loop_aborts_after_spawn_workers_deaths(
        self, tmp_path, monkeypatch
    ):
        # A cell that hard-exits every worker claiming it: the fault
        # hook kills once per marker, and a thread keeps deleting the
        # marker. Two deaths in a row with no cell settling end the
        # campaign, long before its timeout.
        matrix = SuiteMatrix(
            networks=("vgg16",), schemes=("cocco",), scale="tiny", seed=0
        )
        (cell,) = matrix.cells()
        monkeypatch.setenv(FAULT_ENV, cell.cell_id)
        registry = RunRegistry(tmp_path / "reg")
        node = registry.run_node(cell.config_dict(), cell.seed(matrix.seed))
        stop = threading.Event()

        def rearm() -> None:
            while not stop.wait(0.01):
                node.delete("fault-attempted")

        thread = threading.Thread(target=rearm, daemon=True)
        thread.start()
        started = time.monotonic()
        try:
            with pytest.raises(ReproError, match=r"exit codes \[23, 23\]"):
                run_distributed(
                    matrix,
                    tmp_path / "reg",
                    config=CoordinatorConfig(
                        spawn_workers=2,
                        lease_ttl=0.5,
                        poll_interval=0.05,
                        timeout=120,
                    ),
                )
        finally:
            stop.set()
            thread.join()
        assert time.monotonic() - started < 60
        scale = _records(registry.root_node(), "fleet.scale")
        died = [record for record in scale if record["action"] == "died"]
        assert [record["exit_codes"] for record in died] == [[23], [23]]
        assert [record["workers"] for record in died] == [
            ["elastic-w0"], ["elastic-w1"]
        ]
        assert not [record for record in scale if record["action"] == "retire"]
        assert not registry.is_complete(cell.config_dict(), cell.seed(matrix.seed))

    def test_settled_cell_resets_the_death_count(self, tmp_path, monkeypatch):
        # Scripted stand-ins for spawned workers: each exits 9 at once,
        # and the second first completes the vgg16 cell. Its two deaths
        # do not stop a two-worker fleet, because a cell settled in
        # between; the next two in a row do.
        registry = RunRegistry(tmp_path / "reg")
        first = MATRIX.cells()[0]

        def complete_first() -> None:
            registry.open_run(
                first.config_dict(), first.seed(MATRIX.seed)
            ).finish({"status": "complete", "num_evaluations": 1})

        scripts = [None, complete_first, None, None]

        class ScriptedProcess:
            def __init__(self, target, name, kwargs, daemon):
                self.name = name
                self.exitcode = None

            def start(self) -> None:
                script = scripts.pop(0)
                if script is not None:
                    script()
                self.exitcode = 9

            def is_alive(self) -> bool:
                return self.exitcode is None

            def join(self, timeout=None) -> None:
                pass

        class ScriptedContext:
            Process = ScriptedProcess

        monkeypatch.setattr(
            "repro.distrib.coordinator.multiprocessing.get_context",
            lambda method: ScriptedContext,
        )
        fake = FakeClock()
        with pytest.raises(ReproError, match=r"exit codes \[9, 9\]"):
            run_distributed(
                MATRIX,
                tmp_path / "reg",
                config=CoordinatorConfig(
                    spawn_workers=2,
                    timeout=100.0,
                    clock=fake,
                    sleep=fake.sleep,
                ),
            )
        assert scripts == []
        scale = _records(registry.root_node(), "fleet.scale")
        died = [record for record in scale if record["action"] == "died"]
        assert [record["exit_codes"] for record in died] == [[9, 9], [9], [9]]
        assert [record["workers"] for record in died] == [
            ["elastic-w0", "elastic-w1"], ["elastic-w2"], ["elastic-w3"]
        ]

    def test_timeout_aborts(self, tmp_path):
        # no workers at all: the campaign can never finish. A FakeClock
        # drives the timeout — its sleep() advances logical time, so the
        # abort is instant and deterministic.
        fake = FakeClock()
        with pytest.raises(ReproError):
            run_distributed(
                MATRIX,
                tmp_path / "reg",
                config=CoordinatorConfig(
                    spawn_workers=0,
                    poll_interval=1.0,
                    timeout=10.0,
                    clock=fake,
                    sleep=fake.sleep,
                ),
            )
        assert fake.now - 1_000.0 > 10.0  # the loop advanced past the timeout

    def test_status_callback_renders(self, tmp_path):
        seen = []
        run_distributed(
            MATRIX,
            tmp_path / "reg",
            config=CoordinatorConfig(
                spawn_workers=1,
                lease_ttl=5,
                poll_interval=0.05,
                status_interval=0.0,
                timeout=180,
                on_status=seen.append,
            ),
        )
        assert seen
        assert "campaign status" in seen[0]
