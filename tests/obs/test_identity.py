"""Telemetry must never bend the search: on vs off is bit-identical.

The acceptance contract of the whole observability layer: every
durable artifact a cell produces — its result row, its streamed
history, its final checkpoint bytes — is byte-for-byte identical with
telemetry enabled and disabled. Telemetry is a write-only side channel;
the only permitted difference is the presence of ``telemetry.jsonl``
itself. Search code never imports the telemetry layer: a cell's
progress reaches the stream only through the cell driver.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.obs import TELEMETRY_FILENAME
from repro.runs.registry import RunRegistry
from repro.runs.suite import SuiteMatrix, run_cell

MATRIX = SuiteMatrix(
    networks=("vgg16",),
    schemes=("cocco", "sa", "islands", "nsga", "rs", "gs"),
    scale="tiny",
    seed=0,
)

#: Every event kind a cell's stream may hold: its lifecycle, one
#: ``progress`` per history line, and the evaluator's spans and stats.
CELL_EVENT_KINDS = {
    "cell.start", "progress", "span", "evaluator.stats", "cell.finish",
}


def run_matrix(root, telemetry: bool):
    registry = RunRegistry(root)
    rows = [
        run_cell(cell, MATRIX.seed, registry, telemetry=telemetry)
        for cell in MATRIX.cells()
    ]
    return registry, rows


def durable_bytes(registry, cell, campaign_seed):
    """Every durable artifact of a cell, minus the telemetry stream."""
    node = registry.run_node(cell.config_dict(), cell.seed(campaign_seed))
    return {
        key: registry.transport.read_text(key)
        for key in registry.transport.list_keys(node.name)
        if key != node.key(TELEMETRY_FILENAME)
    }


class TestTrajectoryIdentity:
    @pytest.fixture(scope="class")
    def both(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("identity")
        on = run_matrix(root / "on", telemetry=True)
        off = run_matrix(root / "off", telemetry=False)
        return on, off

    def test_result_rows_identical(self, both):
        (_, rows_on), (_, rows_off) = both
        assert rows_on == rows_off

    def test_durable_artifacts_bit_identical(self, both):
        (reg_on, _), (reg_off, _) = both
        for cell in MATRIX.cells():
            on = durable_bytes(reg_on, cell, MATRIX.seed)
            off = durable_bytes(reg_off, cell, MATRIX.seed)
            assert on == off, f"divergent artifacts in {cell.cell_id}"

    def test_telemetry_only_exists_when_enabled(self, both):
        (reg_on, _), (reg_off, _) = both
        for cell in MATRIX.cells():
            config, seed = cell.config_dict(), cell.seed(MATRIX.seed)
            assert reg_on.run_node(config, seed).exists(TELEMETRY_FILENAME)
            assert not reg_off.run_node(config, seed).exists(TELEMETRY_FILENAME)

    def test_telemetry_stream_is_well_formed(self, both):
        (reg_on, _), _ = both
        for cell in MATRIX.cells():
            config, seed = cell.config_dict(), cell.seed(MATRIX.seed)
            text = reg_on.run_node(config, seed).read_text(TELEMETRY_FILENAME)
            events = [json.loads(line) for line in text.splitlines()]
            kinds = [event["kind"] for event in events]
            assert kinds[0] == "cell.start"
            assert kinds[-1] == "cell.finish"
            assert set(kinds) <= CELL_EVENT_KINDS, cell.cell_id
            # One progress event per history line, carrying that line.
            progress = [
                {
                    key: value for key, value in event.items()
                    if key not in ("v", "ts", "kind", "scheme")
                }
                for event in events if event["kind"] == "progress"
            ]
            history = reg_on.load(config, seed).read_history()
            assert history, cell.cell_id
            assert progress == history, cell.cell_id

    def test_evaluator_stats_report_no_unmeasured_timings(self, both):
        # Stage timings are collected only for --profile-timings; a
        # suite cell must not report them as 0.0 s.
        (reg_on, _), _ = both
        for cell in MATRIX.cells():
            config, seed = cell.config_dict(), cell.seed(MATRIX.seed)
            text = reg_on.run_node(config, seed).read_text(TELEMETRY_FILENAME)
            (stats,) = [
                event["stats"]
                for event in map(json.loads, text.splitlines())
                if event["kind"] == "evaluator.stats"
            ]
            assert "batch_priced" in stats, cell.cell_id
            assert not [key for key in stats if key.endswith("_s")], cell.cell_id


def imported_modules(path: Path, root: Path) -> set[str]:
    """Absolute dotted names a module imports, relative imports resolved."""
    package = path.relative_to(root).with_suffix("").parts[:-1]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *(node.module or "").split("."))).strip(".")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


class TestSearchCodeStaysOutOfTelemetry:
    def test_search_packages_never_import_obs(self):
        """Progress leaves a cell only through the cell driver, which
        streams one ``history.jsonl`` line and one ``progress`` event
        per checkpoint; the search packages emit nothing themselves."""
        root = Path(repro.__file__).resolve().parent.parent
        # The scan resolves relative imports (``from ..parallel...``).
        engine = root / "repro" / "ga" / "engine.py"
        assert "repro.parallel.backend" in imported_modules(engine, root)
        offenders = []
        for package in ("ga", "dse"):
            for path in sorted((root / "repro" / package).rglob("*.py")):
                for name in imported_modules(path, root):
                    if name == "repro.obs" or name.startswith("repro.obs."):
                        offenders.append(f"{path.relative_to(root)}: {name}")
        assert not offenders, offenders
