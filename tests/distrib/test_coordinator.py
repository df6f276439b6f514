"""The coordinator: manifest, spawned fleets, reclaim, merged identity."""

from __future__ import annotations

import json
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
from repro.runs.suite import SuiteMatrix, run_suite


MATRIX = SuiteMatrix(
    networks=("vgg16", "googlenet"),
    schemes=("sa",),
    scale="tiny",
    seed=0,
)


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
        clean = run_suite(MATRIX, tmp_path / "clean")
        assert outcome.report.rows == clean.report.rows

    def test_autoscale_spawns_elastic_fleet(self, tmp_path):
        # No fixed fleet at all: every worker that runs a cell must have
        # been spawned by the autoscaler against live queue depth, and
        # every scaling decision must land in the root telemetry stream.
        outcome = run_distributed(
            MATRIX,
            tmp_path / "reg",
            config=CoordinatorConfig(
                spawn_workers=0,
                autoscale=True,
                max_workers=2,
                lease_ttl=5,
                poll_interval=0.05,
                timeout=180,
            ),
        )
        assert outcome.failed == 0
        assert outcome.completed == 2
        assert any("elastic fleet spawned" in note for note in outcome.report.notes)
        registry = RunRegistry(tmp_path / "reg")
        text = registry.root_node().read_text("telemetry.jsonl")
        scale = [
            record
            for record in map(json.loads, text.splitlines())
            if record["kind"] == "fleet.scale"
        ]
        spawned = sum(
            record["count"] for record in scale if record["action"] == "spawn"
        )
        assert spawned >= 1
        assert any(record["action"] == "final" for record in scale)
        clean = run_suite(MATRIX, tmp_path / "clean")
        assert outcome.report.rows == clean.report.rows

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
