"""End-to-end CLI smoke tests (stdout-level)."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli.main import build_parser, main


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("suite", "--networks", "vgg16", "--eval-workers", "2"),
            ("suite", "--networks", "vgg16", "--max-rounds", "2"),
            ("worker", "--registry", "reg", "--eval-workers", "2"),
            ("dse", "vgg16", "--workers", "2"),
            ("pareto", "vgg16", "--workers", "2"),
            ("experiment", "fig3", "--workers", "2"),
        ],
    )
    def test_in_cell_pool_and_round_flags_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestModels:
    def test_lists_paper_models(self, capsys):
        code, out = run_cli(capsys, "models")
        assert code == 0
        for name in ("vgg16", "resnet50", "nasnet", "randwire_a"):
            assert name in out


class TestDescribe:
    def test_shows_layers_and_summary(self, capsys):
        code, out = run_cli(capsys, "describe", "vgg16", "--limit", "4")
        assert code == 0
        assert "conv1_1" in out
        assert "GMACs" in out

    def test_unknown_model_is_clean_error(self, capsys):
        code, out = run_cli(capsys, "describe", "alexnet9000")
        assert code == 1
        assert "error:" in out


class TestMap:
    def test_reports_utilization(self, capsys):
        code, out = run_cli(capsys, "map", "vgg16", "--limit", "3")
        assert code == 0
        assert "MAC-weighted" in out
        assert "ws(" in out or "os(" in out or "is(" in out


class TestPartition:
    def test_greedy_partition_reports_costs(self, capsys):
        code, out = run_cli(
            capsys, "partition", "mobilenet_v2", "--method", "greedy"
        )
        assert code == 0
        assert "EMA" in out
        assert "subgraphs" in out

    def test_show_groups_lists_members(self, capsys):
        code, out = run_cli(
            capsys, "partition", "mobilenet_v2", "--method", "greedy",
            "--show-groups",
        )
        assert code == 0
        assert "subgraph 0:" in out

    def test_chart_renders_bars(self, capsys):
        code, out = run_cli(
            capsys, "partition", "mobilenet_v2", "--method", "random",
            "--chart",
        )
        assert code == 0
        assert "#" in out

    def test_shared_buffer_option(self, capsys):
        code, out = run_cli(
            capsys, "partition", "mobilenet_v2", "--method", "greedy",
            "--shared", "2MB",
        )
        assert code == 0

    def test_conflicting_memory_options_fail_cleanly(self, capsys):
        code, out = run_cli(
            capsys, "partition", "mobilenet_v2", "--glb", "1MB",
            "--shared", "2MB",
        )
        assert code == 1
        assert "error:" in out


class TestTiling:
    def test_fig5_style_table(self, capsys):
        code, out = run_cli(
            capsys, "tiling", "vgg16", "--layers", "conv1_1,conv1_2",
            "--tile", "2",
        )
        assert code == 0
        assert "delta" in out
        assert "elementary operations" in out

    def test_unknown_layer_fails_cleanly(self, capsys):
        code, out = run_cli(
            capsys, "tiling", "vgg16", "--layers", "nonexistent"
        )
        assert code == 1
        assert "error:" in out


class TestTrace:
    def test_renders_snapshots_and_traffic(self, capsys):
        code, out = run_cli(
            capsys, "trace", "vgg16", "--layers", "conv1_1..pool1",
            "--tile", "4", "--ops", "2", "--snapshots", "1",
        )
        assert code == 0
        assert "EMA" in out
        assert "elementary op #0" in out


class TestDse:
    def test_quick_co_exploration(self, capsys):
        code, out = run_cli(
            capsys, "dse", "mobilenet_v2", "--scale", "quick",
            "--mode", "shared",
        )
        assert code == 0
        assert "recommended" in out
        assert "KB" in out


class TestPareto:
    def test_frontier_table(self, capsys):
        code, out = run_cli(
            capsys, "pareto", "mobilenet_v2", "--scale", "quick",
            "--metric", "ema",
        )
        assert code == 0
        assert "Pareto frontier" in out
        assert "KB" in out


class TestProfileTimings:
    @pytest.mark.parametrize("command", ["dse", "pareto"])
    def test_breakdown_lists_stages_and_batch_line(self, capsys, command):
        code, out = run_cli(
            capsys, command, "vgg16", "--scale", "tiny", "--profile-timings",
        )
        assert code == 0
        lines = out.splitlines()
        start = lines.index("  timing breakdown:")
        labels = [line.split(":")[0].strip() for line in lines[start + 1:]]
        assert labels == [
            "profile", "price", "batch", "aggregate", "other", "total",
            "profiles", "batch",
        ]
        keys, batches = re.search(
            r"(\d+) keys in (\d+) batches", lines[-1]
        ).groups()
        assert int(keys) > 0 and int(batches) > 0


class TestExperiment:
    def test_unknown_id_fails_cleanly(self, capsys):
        code, out = run_cli(capsys, "experiment", "fig99")
        assert code == 1
        assert "error:" in out

    def test_export_writes_json(self, capsys, tmp_path):
        target = tmp_path / "fig3.json"
        code, out = run_cli(
            capsys, "experiment", "fig3", "--export", str(target)
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["headers"][0] == "model"
        assert payload["rows"]

    def test_all_prints_every_table_in_order(self, capsys, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.common import SCALES

        cheap = ("fig2", "fig3")
        monkeypatch.setattr(
            runner, "EXPERIMENTS",
            {name: runner.EXPERIMENTS[name] for name in cheap},
        )
        tables = [
            runner.experiment_result(name, SCALES["quick"]).to_text()
            for name in cheap
        ]
        code, out = run_cli(capsys, "experiment", "all")
        assert code == 0
        blocks = out.rstrip("\n").split("\n\n")
        assert len(blocks) == 2
        for block, name, table in zip(blocks, cheap, tables):
            assert block.startswith(table + "\n")
            assert re.fullmatch(
                rf"\[{name} finished in \d+\.\ds\]",
                block[len(table) + 1:],
            )

    def test_all_refuses_export(self, capsys, tmp_path):
        target = tmp_path / "all.json"
        code, out = run_cli(
            capsys, "experiment", "all", "--export", str(target)
        )
        assert code == 1
        assert "error: --export writes one result" in out
        assert not target.exists()


class TestSuite:
    def test_campaign_runs_resumes_and_exports(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        argv = (
            "suite", "--networks", "vgg16", "--schemes", "cocco,sa",
            "--scale", "tiny", "--registry", str(registry),
        )
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "2 cells" in out
        assert "0 failed" in out
        report = json.loads((registry / "report.json").read_text())
        assert len(report["rows"]) == 2

        # second invocation only merges: every cell already complete
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "2 already complete" in out
        assert json.loads((registry / "report.json").read_text()) == report

    def test_report_only_reads_without_running(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        code, out = run_cli(
            capsys, "suite", "--networks", "vgg16", "--scale", "tiny",
            "--registry", str(registry), "--report-only",
        )
        assert code == 0
        assert "incomplete" in out
        assert not registry.exists()  # a pure read creates nothing

    def test_export_flag_writes_copy(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        target = tmp_path / "campaign.csv"
        code, out = run_cli(
            capsys, "suite", "--networks", "vgg16", "--schemes", "sa",
            "--scale", "tiny", "--registry", str(registry),
            "--export", str(target),
        )
        assert code == 0
        assert target.read_text().startswith("network,")

    def test_failed_campaign_exits_nonzero(self, capsys, tmp_path):
        """Automation gates on the exit code: a campaign with failed or
        incomplete cells must not report success."""
        code, out = run_cli(
            capsys, "suite", "--networks", "no_such_model",
            "--scale", "tiny", "--registry", str(tmp_path / "registry"),
        )
        assert code == 1
        assert "1 failed" in out
        assert "failed no_such_model" in out

    def test_report_only_honors_export(self, capsys, tmp_path):
        target = tmp_path / "merged.json"
        code, out = run_cli(
            capsys, "suite", "--networks", "vgg16", "--scale", "tiny",
            "--registry", str(tmp_path / "registry"),
            "--report-only", "--export", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["rows"]

    def test_object_store_registry_round_trip(self, capsys, tmp_path):
        from repro.distrib.objectstore import serve_in_thread

        server, _thread = serve_in_thread()
        try:
            url = server.url("campaign")
            argv = (
                "suite", "--networks", "vgg16", "--schemes", "cocco,sa",
                "--scale", "tiny", "--registry", url,
            )
            code, out = run_cli(capsys, *argv)
            assert code == 0
            assert "0 failed" in out
            assert f"merged report: {url}/report.json" in out
            stored = server.store.get("report.json")
            assert stored is not None
            report = json.loads(stored[0])
            assert len(report["rows"]) == 2

            target = tmp_path / "merged.json"
            code, out = run_cli(
                capsys, *argv, "--report-only", "--export", str(target)
            )
            assert code == 0
            assert json.loads(target.read_text())["rows"] == report["rows"]

            code, out = run_cli(capsys, *argv, "--status", "--format", "json")
            assert code == 0
            assert json.loads(out)["states"] == {"complete": 2}
        finally:
            server.shutdown()
            server.server_close()


class TestSuiteRejectsBadInput:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--workers", "-1"), "worker count must be non-negative"),
            (
                ("--distributed", "--workers", "-1", "--timeout", "20"),
                "worker count must be non-negative",
            ),
            (("--budget", "-5"), "budget must be non-negative"),
            (
                ("--distributed", "--budget", "-5", "--timeout", "20"),
                "budget must be non-negative",
            ),
        ],
    )
    def test_rejected_before_anything_runs(
        self, capsys, tmp_path, flags, message
    ):
        registry = tmp_path / "registry"
        code, out = run_cli(
            capsys, "suite", "--networks", "vgg16", "--scale", "tiny",
            "--registry", str(registry), *flags,
        )
        assert code == 1
        assert out.splitlines() == [f"error: {message}"]
        assert not (registry / "campaign.json").exists()


class TestSuiteBudgetAndGc:
    def test_budgeted_campaign_exits_nonzero_when_exhausted(
        self, capsys, tmp_path
    ):
        registry = tmp_path / "registry"
        code, out = run_cli(
            capsys, "suite", "--networks", "vgg16", "--schemes", "sa",
            "--scale", "tiny", "--registry", str(registry), "--budget", "10",
        )
        assert code == 1
        assert "out of sample budget" in out

    def test_cells_print_under_their_own_state(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "suite", "--networks", "vgg16",
            "--schemes", "cocco,sa,rs", "--scale", "tiny", "--seed", "3",
            "--budget", "60", "--registry", str(tmp_path / "registry"),
        )
        assert code == 1
        assert "3 out of sample budget" in out
        cells = [line.split()[0] for line in out.splitlines()
                 if line.startswith("  ")]
        assert cells == ["exhausted"] * 3

    def test_gc_reports_reclaimed_bytes(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        code, _ = run_cli(
            capsys, "suite", "--networks", "vgg16", "--schemes", "cocco",
            "--scale", "tiny", "--registry", str(registry),
        )
        assert code == 0
        assert list(registry.glob("*/checkpoint.json"))
        code, out = run_cli(capsys, "suite", "--gc", "--registry", str(registry))
        assert code == 0
        assert "reclaimed" in out
        assert not list(registry.glob("*/checkpoint.json"))

    def test_gc_needs_no_networks(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "suite", "--gc", "--registry", str(tmp_path / "none")
        )
        assert code == 0

    def test_missing_networks_is_clean_error(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "suite", "--registry", str(tmp_path / "reg")
        )
        assert code == 1
        assert "--networks" in out

    def test_status_reads_manifest_when_flags_omitted(self, capsys, tmp_path):
        from repro.distrib.coordinator import write_manifest
        from repro.runs.suite import SuiteMatrix

        registry = tmp_path / "registry"
        write_manifest(
            SuiteMatrix(networks=("vgg16",), schemes=("sa",), scale="tiny"),
            registry,
            budget=40,
        )
        code, out = run_cli(
            capsys, "suite", "--status", "--registry", str(registry)
        )
        assert code == 0
        assert "vgg16/separate/energy/b1/sa" in out
        assert "pending" in out

    def test_status_renders_table_without_running(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        code, out = run_cli(
            capsys, "suite", "--networks", "vgg16", "--schemes", "sa",
            "--scale", "tiny", "--registry", str(registry), "--status",
        )
        assert code == 0
        assert "campaign status" in out
        assert "pending" in out
        assert not list(registry.glob("*/result.json"))


class TestWorkerCommand:
    def test_worker_finishes_campaign_and_reports(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        code, out = run_cli(
            capsys, "worker", "--registry", str(registry),
            "--networks", "vgg16", "--schemes", "sa", "--scale", "tiny",
            "--ttl", "5", "--poll", "0.05",
        )
        assert code == 0
        assert "ran 1 cell(s)" in out
        assert "1 completed" in out
        assert list(registry.glob("*/result.json"))

    def test_worker_reads_manifest(self, capsys, tmp_path):
        from repro.distrib.coordinator import write_manifest
        from repro.runs.suite import SuiteMatrix

        registry = tmp_path / "registry"
        write_manifest(
            SuiteMatrix(networks=("vgg16",), schemes=("sa",), scale="tiny"),
            registry,
        )
        code, out = run_cli(
            capsys, "worker", "--registry", str(registry),
            "--ttl", "5", "--poll", "0.05",
        )
        assert code == 0
        assert "1 completed" in out

    def test_worker_without_matrix_or_manifest_fails_cleanly(
        self, capsys, tmp_path
    ):
        code, out = run_cli(
            capsys, "worker", "--registry", str(tmp_path / "nowhere")
        )
        assert code == 1
        assert "manifest" in out


class TestObservabilityCommands:
    """`repro dash`, `repro export-metrics`, and the JSON status view."""

    def finished_registry(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        code, _ = run_cli(
            capsys, "suite", "--networks", "vgg16", "--schemes", "sa",
            "--scale", "tiny", "--registry", str(registry),
        )
        assert code == 0
        return registry

    def test_status_format_json(self, capsys, tmp_path):
        registry = self.finished_registry(capsys, tmp_path)
        code, out = run_cli(
            capsys, "suite", "--status", "--format", "json",
            "--networks", "vgg16", "--schemes", "sa", "--scale", "tiny",
            "--registry", str(registry),
        )
        assert code == 0
        data = json.loads(out)
        assert data["cells_total"] == 1
        assert data["states"] == {"complete": 1}
        assert data["cells"][0]["cell"].startswith("vgg16/")
        assert data["telemetry"]["events"] > 0

    def test_status_json_matches_table_states(self, capsys, tmp_path):
        registry = self.finished_registry(capsys, tmp_path)
        args = (
            "--networks", "vgg16", "--schemes", "sa", "--scale", "tiny",
            "--registry", str(registry),
        )
        _, table = run_cli(capsys, "suite", "--status", *args)
        _, raw = run_cli(
            capsys, "suite", "--status", "--format", "json", *args
        )
        data = json.loads(raw)
        for cell in data["cells"]:
            assert cell["state"] in table

    def test_dash_once_renders_postmortem(self, capsys, tmp_path):
        registry = self.finished_registry(capsys, tmp_path)
        code, out = run_cli(
            capsys, "dash", "--once", "--registry", str(registry),
            "--networks", "vgg16", "--schemes", "sa", "--scale", "tiny",
        )
        assert code == 0
        assert "1 complete" in out
        assert "convergence" in out
        assert "\x1b" not in out  # --once never emits escape codes

    def test_dash_reads_manifest(self, capsys, tmp_path):
        from repro.distrib.coordinator import write_manifest
        from repro.runs.suite import SuiteMatrix

        registry = tmp_path / "registry"
        write_manifest(
            SuiteMatrix(networks=("vgg16",), schemes=("sa",), scale="tiny"),
            registry,
        )
        code, out = run_cli(
            capsys, "dash", "--once", "--registry", str(registry)
        )
        assert code == 0
        assert "1 pending" in out

    def test_export_metrics_writes_snapshot(self, capsys, tmp_path):
        registry = self.finished_registry(capsys, tmp_path)
        out_prefix = tmp_path / "metrics" / "campaign"
        code, out = run_cli(
            capsys, "export-metrics", "--registry", str(registry),
            "--networks", "vgg16", "--schemes", "sa", "--scale", "tiny",
            "--out", str(out_prefix),
        )
        assert code == 0
        prom = out_prefix.with_suffix(".prom")
        snapshot = out_prefix.with_suffix(".json")
        assert prom.exists() and snapshot.exists()
        assert "repro_campaign_cells" in prom.read_text()
        assert json.loads(snapshot.read_text())["cells_total"] == 1

    def test_export_metrics_defaults_into_registry(self, capsys, tmp_path):
        registry = self.finished_registry(capsys, tmp_path)
        code, out = run_cli(
            capsys, "export-metrics", "--registry", str(registry),
            "--networks", "vgg16", "--schemes", "sa", "--scale", "tiny",
        )
        assert code == 0
        assert (registry / "metrics.prom").exists()
        assert (registry / "metrics.json").exists()

    def test_suite_metrics_out_flag(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        code, out = run_cli(
            capsys, "suite", "--networks", "vgg16", "--schemes", "sa",
            "--scale", "tiny", "--registry", str(registry),
            "--metrics-out", str(tmp_path / "m"),
        )
        assert code == 0
        assert "metrics:" in out
        assert (tmp_path / "m.prom").exists()
        assert (tmp_path / "m.json").exists()
