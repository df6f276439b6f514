"""Top-level argument parser and dispatch for ``python -m repro``."""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from ..experiments.common import SCALES
from ..runs.suite import SCHEMES
from . import commands


def _add_matrix_flags(parser: argparse.ArgumentParser) -> None:
    """Campaign-matrix flags shared by worker/dash/export-metrics.

    ``--networks`` stays optional on all three: omitting it reads the
    coordinator's ``campaign.json`` manifest from the registry instead.
    """
    parser.add_argument("--networks", default=None,
                        help="comma list of zoo models; omit to read "
                             "the coordinator's campaign.json manifest")
    parser.add_argument("--modes", default="separate")
    parser.add_argument("--metrics", default="energy")
    parser.add_argument("--schemes", default="cocco")
    parser.add_argument("--bytes-per-element", default="1")
    parser.add_argument("--alphas", default="0.002")
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=None,
                        help="campaign sample budget (omit to read the "
                             "manifest)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the full CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cocco reproduction: graph-level memory optimization and "
            "hardware-mapping co-exploration (Tan, Zhu & Ma, ASPLOS 2024)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo")

    describe = sub.add_parser("describe", help="show a model's layer table")
    describe.add_argument("model")
    describe.add_argument("--limit", type=int, default=None,
                          help="show only the first N layers")

    mapping = sub.add_parser("map", help="map layers onto the PE array")
    mapping.add_argument("model")
    mapping.add_argument("--limit", type=int, default=None,
                         help="show only the first N layers")

    partition = sub.add_parser("partition", help="partition a model")
    partition.add_argument("model")
    partition.add_argument("--method", choices=commands._PARTITIONERS,
                           default="cocco")
    partition.add_argument("--metric", choices=("ema", "energy"), default="ema")
    partition.add_argument("--glb", help="global buffer size (e.g. 1MB)")
    partition.add_argument("--wgt", help="weight buffer size (e.g. 1152KB)")
    partition.add_argument("--shared", help="shared buffer size (exclusive)")
    partition.add_argument("--scale", choices=sorted(SCALES), default="quick")
    partition.add_argument("--seed", type=int, default=0)
    partition.add_argument("--show-groups", action="store_true",
                           help="print each subgraph's member layers")
    partition.add_argument("--chart", action="store_true",
                           help="bar chart of subgraph sizes")

    tiling = sub.add_parser("tiling", help="derive a subgraph tiling scheme")
    tiling.add_argument("model")
    tiling.add_argument("--layers", required=True,
                        help="comma list, 'a..b' spans, or 'all'")
    tiling.add_argument("--tile", type=int, default=1,
                        help="output tile rows (stage-1 choice)")

    trace = sub.add_parser("trace", help="replay a subgraph's memory trace")
    trace.add_argument("model")
    trace.add_argument("--layers", required=True,
                       help="comma list, 'a..b' spans, or 'all'")
    trace.add_argument("--tile", type=int, default=1)
    trace.add_argument("--bpe", type=int, default=1,
                       help="bytes per element (must match the pricing "
                            "config; the trace records it)")
    trace.add_argument("--ops", type=int, default=None,
                       help="truncate after N elementary operations")
    trace.add_argument("--snapshots", type=int, default=4,
                       help="memory snapshots to render")

    dse = sub.add_parser("dse", help="hardware-mapping co-exploration")
    dse.add_argument("model")
    dse.add_argument("--mode", choices=("separate", "shared"),
                     default="separate")
    dse.add_argument("--method", choices=commands._DSE_METHODS, default="cocco")
    dse.add_argument("--metric", choices=("ema", "energy"), default="energy")
    dse.add_argument("--alpha", type=float, default=0.002)
    dse.add_argument("--scale", choices=sorted(SCALES), default="quick")
    dse.add_argument("--seed", type=int, default=0)
    dse.add_argument("--profile-timings", action="store_true",
                     help="print a per-stage evaluation timing breakdown "
                          "(profile / price / aggregate / other) after the run")

    pareto = sub.add_parser(
        "pareto", help="multi-objective capacity/metric frontier (NSGA-II)"
    )
    pareto.add_argument("model")
    pareto.add_argument("--mode", choices=("separate", "shared"),
                        default="shared")
    pareto.add_argument("--metric", choices=("ema", "energy"),
                        default="energy")
    pareto.add_argument("--scale", choices=sorted(SCALES), default="quick")
    pareto.add_argument("--seed", type=int, default=0)
    pareto.add_argument("--profile-timings", action="store_true",
                        help="print a per-stage evaluation timing breakdown "
                             "(profile / price / aggregate / other) after the run")
    pareto.add_argument("--chart", action="store_true",
                        help="ASCII scatter of the frontier")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    experiment.add_argument("id", help="fig1..fig3, fig11..fig14, "
                                       "table1..table3, stability, or all")
    experiment.add_argument("--scale", choices=sorted(SCALES), default="quick")
    experiment.add_argument("--export", help="write the result to CSV/JSON")

    suite = sub.add_parser(
        "suite",
        help="run a durable, sharded, resumable experiment campaign",
    )
    suite.add_argument("--networks",
                       help="comma list of zoo models (matrix dimension); "
                            "required except with --gc, or with --status "
                            "when the registry holds a campaign manifest")
    suite.add_argument("--modes", default="separate",
                       help="comma list of buffer modes: separate,shared")
    suite.add_argument("--metrics", default="energy",
                       help="comma list of metrics: ema,energy")
    suite.add_argument("--schemes", default="cocco",
                       help="comma list of schemes: " + ",".join(SCHEMES))
    suite.add_argument("--bytes-per-element", default="1",
                       help="comma list of element widths in bytes")
    suite.add_argument("--alphas", default="0.002",
                       help="comma list of Formula 2 alphas")
    suite.add_argument("--scale", choices=sorted(SCALES), default="quick")
    suite.add_argument("--seed", type=int, default=0,
                       help="campaign seed; every cell's seed derives "
                            "from it plus the cell's stable key")
    suite.add_argument("--workers", type=int, default=1,
                       help="worker processes cells are sharded across; "
                            "with --distributed, the most local `repro "
                            "worker` processes live at once, spawned as "
                            "cells wait unleased and retired when idle "
                            "(0: external workers only)")
    suite.add_argument("--registry", default="runs-registry",
                       help="run registry: a directory (created if "
                            "missing) or an object-store URI "
                            "s3://host:port/bucket")
    suite.add_argument("--report-only", action="store_true",
                       help="merge and print the registry's current "
                            "results without running anything")
    suite.add_argument("--export", help="also write the merged report "
                                        "to this CSV/JSON path")
    suite.add_argument("--budget", type=int, default=None,
                       help="campaign-wide sample budget: cells get "
                            "deterministic per-cell allocations and "
                            "unspent samples are re-granted from "
                            "converged cells to unconverged ones")
    suite.add_argument("--distributed", action="store_true",
                       help="coordinator mode: enqueue the campaign "
                            "manifest, spawn up to --workers local "
                            "`repro worker` processes against the "
                            "queue of claimable cells, watch lease/"
                            "checkpoint state, and merge the final "
                            "report")
    suite.add_argument("--ttl", type=float, default=30.0,
                       help="lease TTL in seconds (distributed mode): "
                            "a worker silent this long is presumed dead "
                            "and its cells are reclaimed")
    suite.add_argument("--poll", type=float, default=1.0,
                       help="coordinator/worker poll interval (s)")
    suite.add_argument("--status-interval", type=float, default=10.0,
                       help="seconds between live status renders in "
                            "distributed mode")
    suite.add_argument("--timeout", type=float, default=None,
                       help="abort the distributed campaign after this "
                            "many seconds (default: wait forever)")
    suite.add_argument("--status", action="store_true",
                       help="print the live campaign status table and "
                            "exit (no work is run)")
    suite.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="--status output format: the human table, "
                            "or the full aggregated campaign view as "
                            "JSON (same numbers the dashboard and "
                            "metrics exporter read)")
    suite.add_argument("--metrics-out",
                       help="after the run (or with --status), export "
                            "the campaign metrics snapshot to "
                            "PREFIX.prom + PREFIX.json")
    suite.add_argument("--gc", action="store_true",
                       help="drop stale checkpoint/lease files of "
                            "completed runs in --registry, report "
                            "reclaimed bytes, and exit")

    worker = sub.add_parser(
        "worker",
        help="long-running campaign worker: lease cells from a shared "
             "registry, execute and checkpoint them, heartbeat, resume "
             "dead peers' cells",
    )
    worker.add_argument("--registry", required=True,
                        help="shared run registry: a directory or an "
                             "object-store URI s3://host:port/bucket")
    _add_matrix_flags(worker)
    worker.add_argument("--worker-id", default=None,
                        help="stable worker identity (default: host-pid)")
    worker.add_argument("--ttl", type=float, default=30.0,
                        help="lease TTL in seconds")
    worker.add_argument("--poll", type=float, default=1.0,
                        help="idle poll interval (s)")
    worker.add_argument("--max-idle", type=float, default=None,
                        help="exit after this many consecutive idle "
                             "seconds (default: wait for peers forever)")

    dash = sub.add_parser(
        "dash",
        help="live terminal dashboard over a campaign registry: "
             "per-cell convergence sparklines, lease/status table, "
             "fleet health, budget spend — works on running and "
             "dead/finished campaigns alike",
    )
    dash.add_argument("--registry", required=True,
                      help="run registry to watch: a directory or an "
                           "object-store URI s3://host:port/bucket")
    _add_matrix_flags(dash)
    dash.add_argument("--interval", type=float, default=2.0,
                      help="seconds between refreshes")
    dash.add_argument("--once", action="store_true",
                      help="render a single frame and exit (CI and "
                           "post-mortem use; no screen clearing)")
    dash.add_argument("--frames", type=int, default=None,
                      help="stop after N refreshes (default: run until "
                           "interrupted)")
    dash.add_argument("--width", type=int, default=32,
                      help="sparkline width in columns")

    export_metrics = sub.add_parser(
        "export-metrics",
        help="export a campaign metrics snapshot: Prometheus textfile "
             "(PREFIX.prom) + JSON (PREFIX.json)",
    )
    export_metrics.add_argument("--registry", required=True,
                                help="run registry to probe: a directory "
                                     "or an object-store URI "
                                     "s3://host:port/bucket")
    _add_matrix_flags(export_metrics)
    export_metrics.add_argument("--out", default=None,
                                help="output path prefix (default: "
                                     "<registry>/metrics; required for "
                                     "an object-store registry)")

    lint = sub.add_parser(
        "lint",
        help="AST invariant checker: seeded RNG, injectable clocks, "
             "sorted scans, atomic writes, checkpoint completeness",
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="diagnostic output format")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and zone policy, then exit")
    lint.add_argument("--deep", action="store_true",
                      help="whole-program pass: call-graph taint flows, "
                           "all-paths atomic writes, pool/lease rules "
                           "(RL101-RL105)")
    lint.add_argument("--trace", action="store_true",
                      help="print the full source->sink call chain under "
                           "each flow finding (text format)")

    return parser


_HANDLERS = {
    "models": commands.cmd_models,
    "describe": commands.cmd_describe,
    "map": commands.cmd_map,
    "partition": commands.cmd_partition,
    "tiling": commands.cmd_tiling,
    "trace": commands.cmd_trace,
    "dse": commands.cmd_dse,
    "pareto": commands.cmd_pareto,
    "experiment": commands.cmd_experiment,
    "suite": commands.cmd_suite,
    "worker": commands.cmd_worker,
    "dash": commands.cmd_dash,
    "export-metrics": commands.cmd_export_metrics,
    "lint": commands.cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Handlers return the text to print, or ``(text, exit_code)`` when the
    printed output and the process status are independent (``suite``
    prints its merged report even for a failed campaign but must exit
    non-zero so automation can gate on it).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        result = handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, tuple):
        text, code = result
        print(text)
        return code
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
