"""The terminal dashboard: sparklines, frames, and the refresh loop."""

from __future__ import annotations

from repro.distrib.clock import FakeClock
from repro.distrib.lease import try_acquire_lease
from repro.obs import TelemetrySink
from repro.obs.aggregate import build_view
from repro.obs.dash import render_dashboard, run_dash, sparkline
from repro.obs.metrics import campaign_metrics
from repro.runs.registry import RunRegistry
from repro.runs.suite import SuiteMatrix, run_suite

MATRIX = SuiteMatrix(
    networks=("vgg16",), schemes=("cocco", "sa"), scale="tiny", seed=0
)


class TestSparkline:
    def test_fixed_width(self):
        assert len(sparkline([1.0, 2.0, 3.0], width=10)) == 10
        assert len(sparkline(list(map(float, range(100))), width=10)) == 10

    def test_empty_renders_flat(self):
        assert sparkline([], width=8) == "-" * 8

    def test_nonfinite_only_renders_flat(self):
        assert sparkline([float("inf"), float("nan")], width=8) == "-" * 8

    def test_descending_costs_slope_down(self):
        line = sparkline([10.0, 8.0, 6.0, 4.0, 2.0], width=5)
        ramp = " .:-=+*#%@"
        levels = [ramp.index(ch) for ch in line]
        assert levels == sorted(levels, reverse=True)
        assert levels[0] > levels[-1]

    def test_constant_series_is_uniform(self):
        line = sparkline([5.0, 5.0, 5.0], width=3)
        assert len(set(line)) == 1

    def test_mixed_nonfinite_marked(self):
        line = sparkline([1.0, float("inf"), 2.0], width=3)
        assert "?" in line


class TestRenderDashboard:
    def test_finished_campaign_renders_everything(self, tmp_path):
        run_suite(MATRIX, tmp_path / "reg")
        view = build_view(
            MATRIX, RunRegistry(tmp_path / "reg"), clock=lambda: 0.0
        )
        text = render_dashboard(view)
        assert "2 complete" in text
        assert "best cost:" in text
        assert "convergence" in text
        assert "vgg16/separate/energy/b1/cocco" in text
        assert "telemetry:" in text
        assert "fleet:" not in text  # no lease held, no worker spawned
        assert "\x1b" not in text  # frames are plain text; the loop
        # owns the escape codes

    def test_empty_campaign_renders(self, tmp_path):
        view = build_view(
            MATRIX, RunRegistry(tmp_path / "reg"), clock=lambda: 0.0
        )
        text = render_dashboard(view)
        assert "2 pending" in text
        assert "no cell has streamed history yet" in text

    def test_fleet_counts(self, tmp_path):
        # The coordinator's fleet events live in the root stream.
        run_suite(MATRIX, tmp_path / "reg")
        registry = RunRegistry(tmp_path / "reg")
        fleet = TelemetrySink(registry.root_node())
        fleet.emit("fleet.scale", action="spawn", count=3, depth=3)
        fleet.emit("fleet.scale", action="died", count=2, exit_codes=[23, -9])
        fleet.emit("fleet.scale", action="retire", count=1)
        fleet.emit("fleet.scale", action="final", spawned=3, retired=1, died=2)
        view = build_view(MATRIX, registry, clock=lambda: 0.0)
        text = render_dashboard(view)
        assert "fleet:\n  spawned 3, retired 1, died 2" in text
        telemetry = campaign_metrics(view)["telemetry"]
        assert (
            telemetry["fleet_spawned"],
            telemetry["fleet_retired"],
            telemetry["fleet_died"],
        ) == (3, 1, 2)

    def test_reaped_worker_renders_dead(self, tmp_path):
        # The coordinator reaped elastic-w0 with a non-zero exit before
        # its lease expired: its fleet row reads dead, not live.
        registry = RunRegistry(tmp_path / "reg")
        clock = FakeClock()
        for cell, owner in zip(MATRIX.cells(), ("elastic-w0", "elastic-w1")):
            node = registry.run_node(cell.config_dict(), cell.seed(MATRIX.seed))
            assert try_acquire_lease(node, owner, ttl=30, clock=clock)
        TelemetrySink(registry.root_node()).emit(
            "fleet.scale", action="died", count=1, exit_codes=[23],
            workers=["elastic-w0"],
        )
        view = build_view(MATRIX, registry, clock=clock)
        rows = [
            line.split()[:2]
            for line in render_dashboard(view).splitlines()
            if line.startswith("  elastic-w")
        ]
        assert rows == [["elastic-w0", "DEAD"], ["elastic-w1", "live"]]
        workers = campaign_metrics(view)["workers"]
        assert [(w["owner"], w["dead"]) for w in workers] == [
            ("elastic-w0", True), ("elastic-w1", False)
        ]

    def test_budget_line(self, tmp_path):
        run_suite(MATRIX, tmp_path / "reg", budget=40)
        view = build_view(
            MATRIX, RunRegistry(tmp_path / "reg"), budget=40,
            clock=lambda: 0.0,
        )
        text = render_dashboard(view)
        assert "budget: 40 samples" in text


class TestRunDash:
    def test_once_renders_single_plain_frame(self, tmp_path):
        run_suite(MATRIX, tmp_path / "reg")
        frames: list[str] = []
        rendered = run_dash(
            MATRIX, tmp_path / "reg", once=True, emit=frames.append,
            clock=lambda: 0.0, sleep=lambda _s: None,
        )
        assert rendered == 1
        assert len(frames) == 1
        assert "\x1b" not in frames[0]
        assert "2 complete" in frames[0]

    def test_loop_clears_screen_and_counts_frames(self, tmp_path):
        run_suite(MATRIX, tmp_path / "reg")
        frames: list[str] = []
        sleeps: list[float] = []
        rendered = run_dash(
            MATRIX, tmp_path / "reg", interval=7.0, frames=3,
            emit=frames.append, clock=lambda: 0.0, sleep=sleeps.append,
        )
        assert rendered == 3
        assert len(frames) == 3
        assert all(frame.startswith("\x1b[2J\x1b[H") for frame in frames)
        assert sleeps == [7.0, 7.0]  # no sleep after the final frame
