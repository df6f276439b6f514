"""Implementations of the CLI subcommands.

Each function takes parsed arguments and returns the text to print, so
the command layer stays testable without capturing stdout.
"""

from __future__ import annotations

import argparse

from ..config import AcceleratorConfig
from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..errors import ConfigError, SearchError
from ..execution.tiling import derive_tiling
from ..experiments.common import SCALES, paper_accelerator
from ..experiments.reporting import ExperimentResult, format_table
from ..graphs.analysis import graph_stats
from ..graphs.zoo import available_models, get_model
from ..mapper import graph_utilization, map_graph
from ..memory.trace import render_trace, trace_subgraph
from ..partition.dp import dp_partition
from ..partition.enumeration import enumerate_partition
from ..partition.greedy import greedy_partition
from ..partition.random_init import random_partition
from ..search_space import CapacitySpace
from ..dse.cocco import cocco_co_optimize, cocco_partition_only
from ..dse.sa import sa_co_optimize
from ..dse.two_step import grid_search_ga, random_search_ga
from ..units import to_kb, to_mb
from ..viz.charts import bar_chart
from ..viz.export import write_result
from .parsing import parse_layer_list, parse_memory


def _metric(name: str) -> Metric:
    return Metric.EMA if name == "ema" else Metric.ENERGY


def _timing_breakdown(evaluator: Evaluator, wall_seconds: float) -> list[str]:
    """Per-stage timing lines for ``--profile-timings``.

    The instrumented stages are subgraph profiling, memory-dependent
    pricing, batch pricing and partition aggregation; the remainder of
    the wall clock is search machinery (breeding, selection, repair
    bookkeeping).
    """
    timings = evaluator.timings
    staged = sum(timings.values())
    other = max(0.0, wall_seconds - staged)
    lines = ["  timing breakdown:"]
    for label, key in (
        ("profile", "profile_s"),
        ("price", "price_s"),
        ("batch", "batch_s"),
        ("aggregate", "aggregate_s"),
    ):
        lines.append(f"    {label:<10}: {timings.get(key, 0.0):8.3f}s")
    lines.append(f"    {'other':<10}: {other:8.3f}s (search)")
    lines.append(f"    {'total':<10}: {wall_seconds:8.3f}s wall")
    lines.append(
        f"    profiles   : {evaluator.num_profile_calls} derived, "
        f"{evaluator.num_cost_calls} subgraphs priced"
    )
    calls = evaluator.num_batch_calls
    priced = evaluator.num_batch_priced
    if calls:
        seen = priced + evaluator.num_batch_hits
        lines.append(
            f"    batch      : {priced} keys in {calls} batches "
            f"(avg {priced / calls:.1f}/batch), "
            f"direct-solve {_rate(evaluator.num_batch_direct, priced)}, "
            f"cache hits {_rate(evaluator.num_batch_hits, seen)}, "
            f"{evaluator.num_direct_probes} analytic feasibility probes"
        )
    return lines


def _rate(part: int, whole: int) -> str:
    """``part``/``whole`` as a percentage string (``-`` for empty)."""
    return f"{100.0 * part / whole:.1f}%" if whole else "-"


def _accelerator(args: argparse.Namespace) -> AcceleratorConfig:
    memory = parse_memory(
        getattr(args, "glb", None),
        getattr(args, "wgt", None),
        getattr(args, "shared", None),
    )
    return paper_accelerator(memory=memory)


# ---------------------------------------------------------------------------
def cmd_models(args: argparse.Namespace) -> str:
    """``repro models`` — list the zoo with summary statistics."""
    headers = ("model", "layers", "edges", "MACs(G)", "weights(MB)", "acts(MB)")
    rows = []
    for name in available_models():
        graph = get_model(name)
        stats = graph_stats(graph)
        rows.append(
            (
                name,
                len(graph.compute_names),
                len(graph.edges),
                round(graph.total_macs / 1e9, 2),
                round(to_mb(graph.total_weight_bytes), 2),
                round(to_mb(stats.total_activation_bytes), 2),
            )
        )
    return format_table(headers, rows, title="model zoo")


def cmd_describe(args: argparse.Namespace) -> str:
    """``repro describe <model>`` — per-layer table plus graph stats."""
    graph = get_model(args.model)
    stats = graph_stats(graph)
    headers = ("layer", "op", "shape", "k/s", "weights(KB)", "MACs(M)")
    rows = []
    names = graph.topological_order()
    if args.limit is not None:
        names = names[: args.limit]
    for name in names:
        spec = graph.layer(name)
        rows.append(
            (
                name,
                spec.op.value,
                str(spec.shape),
                f"{spec.kernel}/{spec.stride}",
                round(to_kb(spec.weight_bytes), 1),
                round(spec.macs / 1e6, 2),
            )
        )
    table = format_table(headers, rows, title=f"{args.model}")
    summary = (
        f"\n{len(graph.compute_names)} compute layers, "
        f"{len(graph.edges)} edges, depth {stats.depth}, "
        f"max fan-out {stats.max_fanout}; "
        f"{graph.total_macs / 1e9:.2f} GMACs, "
        f"{to_mb(graph.total_weight_bytes):.2f} MB weights"
    )
    return table + summary


def cmd_map(args: argparse.Namespace) -> str:
    """``repro map <model>`` — PE-array mapping and utilization report."""
    graph = get_model(args.model)
    accel = AcceleratorConfig()
    mapping = map_graph(graph, accel)
    util = graph_utilization(graph, accel, mapping)
    headers = ("layer", "mapping", "utilization", "cycles")
    rows = []
    names = list(mapping.layers)
    if args.limit is not None:
        names = names[: args.limit]
    for name in names:
        layer = mapping[name]
        rows.append(
            (
                name,
                layer.best.mapping.describe(),
                round(layer.utilization, 3),
                layer.compute_cycles,
            )
        )
    table = format_table(headers, rows, title=f"{args.model} mapping")
    summary = (
        f"\nmean utilization {util.mean:.3f}, "
        f"MAC-weighted {util.macs_weighted:.3f} "
        f"(flat model assumes {accel.pe_utilization})"
    )
    return table + summary


# ---------------------------------------------------------------------------
_PARTITIONERS = ("greedy", "dp", "cocco", "enum", "random")


def cmd_partition(args: argparse.Namespace) -> str:
    """``repro partition <model>`` — run one partitioner, report costs."""
    graph = get_model(args.model)
    accel = _accelerator(args)
    evaluator = Evaluator(graph, accel)
    metric = _metric(args.metric)
    scale = SCALES[args.scale]

    def cost_fn(members: frozenset[str]) -> float:
        cost = evaluator.subgraph_cost(members)
        if not cost.feasible:
            return float("inf")
        return cost.ema_bytes if metric is Metric.EMA else cost.energy_pj

    if args.method == "greedy":
        partition = greedy_partition(graph, cost_fn)
    elif args.method == "dp":
        partition = dp_partition(graph, cost_fn)
    elif args.method == "random":
        import random as _random

        partition = random_partition(graph, _random.Random(args.seed))
    elif args.method == "enum":
        capacity = accel.memory.activation_capacity

        def prune_fn(members: frozenset[str]) -> bool:
            return evaluator.min_footprint(members) > capacity * 1.25

        try:
            partition = enumerate_partition(
                graph,
                cost_fn,
                max_subgraph_size=scale.enum_max_subgraph,
                max_states=scale.enum_max_states,
                prune_fn=prune_fn,
                max_candidates_per_state=scale.enum_max_states,
            )
        except SearchError as exc:
            return f"enumeration exhausted its budget: {exc}"
    else:
        result = cocco_partition_only(
            evaluator,
            accel.memory,
            metric=metric,
            ga_config=scale.ga_config(seed=args.seed),
        )
        partition = result.best_genome.partition

    cost = evaluator.evaluate(partition.subgraph_sets)
    lines = [
        f"{args.method} partition of {args.model}: "
        f"{partition.num_subgraphs} subgraphs",
        f"  EMA        : {to_mb(cost.ema_bytes):.2f} MB",
        f"  energy     : {cost.energy_pj / 1e9:.3f} mJ",
        f"  avg BW     : {cost.bandwidth.average_bytes_per_second / 1e9:.2f} GB/s",
        f"  latency    : {cost.latency_cycles / accel.frequency_hz * 1e3:.2f} ms",
        f"  feasible   : {cost.feasible}",
    ]
    if args.show_groups:
        for index, members in enumerate(partition.subgraph_sets):
            lines.append(f"  subgraph {index}: {', '.join(sorted(members))}")
    if args.chart:
        sizes = [len(s) for s in partition.subgraph_sets]
        labels = [str(i) for i in range(len(sizes))]
        lines.append(bar_chart(labels, [float(s) for s in sizes],
                               title="subgraph sizes (layers)"))
    return "\n".join(lines)


def cmd_tiling(args: argparse.Namespace) -> str:
    """``repro tiling <model> --layers ...`` — show the derived scheme."""
    graph = get_model(args.model)
    members = parse_layer_list(graph, args.layers)
    tiling = derive_tiling(graph, members, output_tile_rows=args.tile)
    headers = ("node", "role", "delta", "tile_rows", "upd_num", "rows/op")
    rows = []
    for name in graph.topological_order():
        if name not in tiling:
            continue
        node = tiling[name]
        role = "input" if node.is_interface_input else (
            "output" if node.is_output else "inter."
        )
        rows.append(
            (name, role, node.delta, node.tile_rows, node.upd_num,
             node.rows_per_op)
        )
    table = format_table(headers, rows,
                         title=f"consumption-centric tiling ({len(members)} layers)")
    return table + f"\n{tiling.num_elementary_ops} elementary operations"


def cmd_trace(args: argparse.Namespace) -> str:
    """``repro trace <model> --layers ...`` — replay the memory behaviour."""
    graph = get_model(args.model)
    members = parse_layer_list(graph, args.layers)
    trace = trace_subgraph(
        graph,
        members,
        output_tile_rows=args.tile,
        bytes_per_element=getattr(args, "bpe", 1),
        max_ops=args.ops,
    )
    return render_trace(trace, graph, max_snapshots=args.snapshots)


# ---------------------------------------------------------------------------
_DSE_METHODS = ("cocco", "sa", "rs", "gs")


def cmd_dse(args: argparse.Namespace) -> str:
    """``repro dse <model>`` — hardware-mapping co-exploration."""
    import time as _time

    graph = get_model(args.model)
    profile_timings = getattr(args, "profile_timings", False)
    evaluator = Evaluator(
        graph, paper_accelerator(), collect_timings=profile_timings
    )
    scale = SCALES[args.scale]
    started = _time.perf_counter()
    space = (
        CapacitySpace.paper_shared()
        if args.mode == "shared"
        else CapacitySpace.paper_separate()
    )
    metric = _metric(args.metric)
    if args.method == "cocco":
        result = cocco_co_optimize(
            evaluator, space, metric=metric, alpha=args.alpha,
            ga_config=scale.co_opt_ga_config(seed=args.seed),
        )
    elif args.method == "sa":
        result = sa_co_optimize(
            evaluator, space, metric=metric, alpha=args.alpha,
            sa_config=scale.co_opt_sa_config(seed=args.seed),
        )
    elif args.method == "rs":
        result = random_search_ga(
            evaluator, space, metric=metric, alpha=args.alpha,
            num_candidates=scale.rs_candidates,
            ga_config=scale.ga_config(seed=args.seed),
            seed=args.seed,
        )
    else:
        result = grid_search_ga(
            evaluator, space, metric=metric, alpha=args.alpha,
            stride=scale.gs_stride, max_candidates=scale.gs_max_candidates,
            ga_config=scale.ga_config(seed=args.seed),
        )
    cost = result.partition_cost
    lines = [
        f"{result.method} co-exploration of {args.model} "
        f"({args.mode} buffer, alpha={args.alpha}, metric={args.metric})",
        f"  recommended : {result.describe_memory()}",
        f"  cost        : {result.best_cost:.3e}",
        f"  EMA         : {to_mb(cost.ema_bytes):.2f} MB",
        f"  energy      : {cost.energy_pj / 1e9:.3f} mJ",
        f"  subgraphs   : {cost.num_subgraphs}",
        f"  evaluations : {result.num_evaluations}",
    ]
    if profile_timings:
        lines.extend(_timing_breakdown(evaluator, _time.perf_counter() - started))
    return "\n".join(lines)


def cmd_pareto(args: argparse.Namespace) -> str:
    """``repro pareto <model>`` — multi-objective capacity/metric frontier."""
    from ..dse.nsga import NSGAConfig, nsga2_co_optimize
    from ..viz.charts import scatter_chart
    import time as _time

    graph = get_model(args.model)
    profile_timings = getattr(args, "profile_timings", False)
    evaluator = Evaluator(
        graph, paper_accelerator(), collect_timings=profile_timings
    )
    started = _time.perf_counter()
    space = (
        CapacitySpace.paper_shared()
        if args.mode == "shared"
        else CapacitySpace.paper_separate()
    )
    scale = SCALES[args.scale]
    result = nsga2_co_optimize(
        evaluator,
        space,
        metric=_metric(args.metric),
        config=NSGAConfig(
            population_size=scale.ga_population,
            generations=scale.ga_generations,
            seed=args.seed,
        ),
    )
    headers = ("capacity", "metric_cost", "formula2@0.002")
    rows = [
        (
            f"{to_kb(p.capacity_bytes):.0f}KB",
            f"{p.metric_cost:.4e}",
            f"{p.formula2(0.002):.4e}",
        )
        for p in result.front
    ]
    table = format_table(
        headers, rows,
        title=f"{args.model} capacity-{args.metric} Pareto frontier "
              f"({result.num_evaluations} evaluations)",
    )
    if args.chart and len(result.front) >= 2:
        points = [(to_kb(p.capacity_bytes), p.metric_cost) for p in result.front]
        table += "\n" + scatter_chart(
            {"frontier": points}, title="capacity (KB) vs metric cost"
        )
    if profile_timings:
        table += "\n" + "\n".join(
            _timing_breakdown(evaluator, _time.perf_counter() - started)
        )
    return table


def cmd_experiment(args: argparse.Namespace) -> str:
    """``repro experiment <id>|all`` — regenerate paper tables/figures.

    ``all`` runs every experiment in table order, each table followed
    by the time it took.
    """
    import time as _time

    from ..experiments.runner import EXPERIMENTS, experiment_result

    scale = SCALES[args.scale]
    if args.id == "all":
        if args.export:
            raise ConfigError(
                "--export writes one result; name one experiment, not 'all'"
            )
        blocks = []
        for name in EXPERIMENTS:
            started = _time.perf_counter()
            table = experiment_result(name, scale).to_text()
            elapsed = _time.perf_counter() - started
            blocks.append(f"{table}\n[{name} finished in {elapsed:.1f}s]")
        return "\n\n".join(blocks)
    if args.id not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {args.id!r}; choose from "
            f"{', '.join(EXPERIMENTS)} or all"
        )
    result: ExperimentResult = experiment_result(args.id, scale)
    text = result.to_text()
    if args.export:
        path = write_result(result, args.export)
        text += f"\nexported to {path}"
    return text


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _suite_matrix(args: argparse.Namespace):
    from ..runs.suite import SuiteMatrix

    if not args.networks:
        raise ConfigError("--networks is required (except with --gc)")
    return SuiteMatrix(
        networks=_parse_list(args.networks),
        modes=_parse_list(args.modes),
        metrics=_parse_list(args.metrics),
        bytes_per_element=tuple(
            int(v) for v in _parse_list(args.bytes_per_element)
        ),
        schemes=_parse_list(args.schemes),
        alphas=tuple(float(v) for v in _parse_list(args.alphas)),
        scale=args.scale,
        seed=args.seed,
    )


def _campaign_target(args: argparse.Namespace):
    """Resolve (matrix, budget) from flags or the registry manifest.

    Shared by every command that *observes* someone else's campaign
    (``worker``, ``suite --status``, ``dash``, ``export-metrics``):
    explicit ``--networks`` flags win, otherwise the coordinator's
    ``campaign.json`` manifest is read; either way an omitted
    ``--budget`` falls back to the manifest's (running uncapped against
    a budgeted fleet, or rendering a budgeted campaign as unbudgeted,
    would disagree with every other participant's schedule).
    """
    from ..distrib.coordinator import read_manifest

    budget = args.budget
    if args.networks:
        matrix = _suite_matrix(args)
        if budget is None:
            try:
                _, budget = read_manifest(args.registry)
            except ConfigError:
                pass  # no coordinator manifest: genuinely unbudgeted
    else:
        matrix, manifest_budget = read_manifest(args.registry)
        if budget is None:
            budget = manifest_budget
    return matrix, budget


def cmd_suite(args: argparse.Namespace) -> tuple[str, int]:
    """``repro suite`` — run (or resume) a sharded experiment campaign.

    Expands the workload matrix into cells, shards them across worker
    processes, skips cells the registry already holds complete, and
    merges every durable result into one report. Safe to kill and
    re-run: the resumed campaign's merged report is bit-identical to an
    uninterrupted one at the same campaign seed. Exits non-zero when any
    cell failed or remains incomplete, so CI can gate on the campaign.

    ``--distributed`` switches to coordinator mode (spawning up to
    ``--workers`` local ``repro worker`` processes against the shared
    registry's queue of claimable cells), ``--budget`` caps the
    campaign's total samples with deterministic per-cell re-granting,
    ``--status`` prints the live lease/checkpoint view, and ``--gc``
    reclaims stale checkpoint/lease files of completed runs.
    """
    from ..runs.registry import RunRegistry
    from ..runs.suite import merged_report, run_suite
    from ..viz.export import result_to_json

    registry = RunRegistry(args.registry)
    if args.gc:
        removed, reclaimed = registry.gc()
        return (
            f"gc [{registry.location}]: removed {removed} stale "
            f"file(s), reclaimed {to_kb(reclaimed):.1f} KB"
        ), 0

    if args.status:
        # Status is a pure read of someone else's campaign: prefer the
        # coordinator's manifest over retyped (and easily mistyped)
        # matrix flags, exactly as `repro worker` does. Both formats
        # fold the registry through the same aggregation path
        # (obs.aggregate.build_view wraps the table's snapshot), so the
        # JSON view and the human table can never disagree.
        import json as _json

        from ..obs.aggregate import build_view
        from ..obs.metrics import campaign_metrics, write_metrics
        from ..viz.campaign import render_campaign

        matrix, budget = _campaign_target(args)
        view = build_view(matrix, registry, budget=budget)
        if args.format == "json":
            text = _json.dumps(
                campaign_metrics(view), indent=2, sort_keys=True
            )
        else:
            text = render_campaign(list(view.statuses))
        if args.metrics_out:
            prom, snapshot = write_metrics(view, args.metrics_out)
            text += f"\nmetrics: {prom}, {snapshot}"
        return text, 0

    matrix = _suite_matrix(args)
    if args.report_only:
        report = merged_report(matrix, registry)
        lines = [report.to_text()]
        if args.export:
            lines.append(f"exported to {write_result(report, args.export)}")
        return "\n".join(lines), 0

    if args.distributed:
        from ..distrib.coordinator import CoordinatorConfig, run_distributed

        config = CoordinatorConfig(
            spawn_workers=args.workers,
            lease_ttl=args.ttl,
            poll_interval=args.poll,
            status_interval=args.status_interval,
            timeout=args.timeout,
            on_status=lambda text: print(text, flush=True),
        )
        outcome = run_distributed(
            matrix, args.registry, budget=args.budget, config=config
        )
    else:
        outcome = run_suite(
            matrix, args.registry, workers=args.workers, budget=args.budget
        )
    # The merged report is one more registry file, written atomically
    # through the root node; --export keeps a local copy.
    registry.root_node().write_atomic(
        "report.json", result_to_json(outcome.report)
    )
    lines = [outcome.report.to_text(), "", outcome.summary(),
             f"merged report: {registry.location}/report.json"]
    for cell_id, (state, message) in outcome.errors.items():
        lines.append(f"  {state} {cell_id}: {message}")
    if args.export:
        path = write_result(outcome.report, args.export)
        lines.append(f"exported to {path}")
    if args.metrics_out:
        from ..obs.metrics import export_metrics

        prom, snapshot = export_metrics(
            matrix, registry, args.metrics_out, budget=args.budget
        )
        lines.append(f"metrics: {prom}, {snapshot}")
    return "\n".join(lines), 1 if outcome.failed or outcome.exhausted else 0


def cmd_worker(args: argparse.Namespace) -> str:
    """``repro worker`` — join a campaign as a lease-claiming worker.

    Points at a shared registry directory; the matrix comes from the
    flags or, when ``--networks`` is omitted, from the coordinator's
    ``campaign.json`` manifest. Runs until the campaign is finished
    (or ``--max-idle`` elapses with nothing claimable), then prints a
    summary of the cells it ran, resumed, and reclaimed.
    """
    from ..distrib.worker import (
        WorkerConfig,
        default_worker_id,
        run_worker,
    )

    matrix, budget = _campaign_target(args)
    config = WorkerConfig(
        worker_id=args.worker_id or default_worker_id(),
        lease_ttl=args.ttl,
        poll_interval=args.poll,
        max_idle=args.max_idle,
    )
    summary = run_worker(matrix, args.registry, config, budget=budget)
    return summary.render()


def cmd_dash(args: argparse.Namespace) -> str:
    """``repro dash`` — live terminal dashboard over a campaign.

    A pure observer: reads the same registry bytes every worker trusts
    (histories, leases, telemetry streams, results) and renders
    convergence sparklines, the cell status table, fleet health, and
    budget totals. ``--once`` prints a single frame — the post-mortem
    mode for finished or killed campaigns and for CI logs; without it
    the screen refreshes every ``--interval`` seconds until
    interrupted.
    """
    from ..obs.aggregate import build_view
    from ..obs.dash import render_dashboard, run_dash
    from ..runs.registry import RunRegistry

    matrix, budget = _campaign_target(args)
    if args.once:
        view = build_view(matrix, RunRegistry(args.registry), budget=budget)
        return render_dashboard(view, width=args.width)
    try:
        frames = run_dash(
            matrix, args.registry, budget=budget, interval=args.interval,
            frames=args.frames, width=args.width,
        )
    except KeyboardInterrupt:
        return "dashboard stopped"
    return f"dashboard stopped after {frames} frame(s)"


def cmd_export_metrics(args: argparse.Namespace) -> str:
    """``repro export-metrics`` — snapshot campaign metrics to disk.

    Writes ``PREFIX.prom`` (Prometheus textfile exposition, ready for
    the node-exporter textfile collector) and ``PREFIX.json`` (the same
    numbers as one JSON object). Works while the campaign runs and
    after it is dead — the snapshot is a pure function of whatever
    registry bytes survived.
    """
    from pathlib import Path as _Path

    from ..obs.metrics import export_metrics

    matrix, budget = _campaign_target(args)
    if args.out:
        prefix = args.out
    elif "://" in str(args.registry):
        raise ConfigError(
            "--out is required when the registry is a transport URI "
            "(there is no local registry directory to default into)"
        )
    else:
        prefix = str(_Path(args.registry) / "metrics")
    prom, snapshot = export_metrics(
        matrix, args.registry, prefix, budget=budget
    )
    return f"wrote {prom}\nwrote {snapshot}"


def cmd_lint(args: argparse.Namespace) -> tuple[str, int]:
    """``repro lint`` — machine-check the reproduction's invariants.

    Runs the AST rule set of :mod:`repro.lint` (seeded-RNG-only,
    injectable clocks, sorted scans, atomic durable writes) over the
    given paths and exits 0 only when the tree is clean — CI gates on
    it exactly like ruff. ``--deep``
    adds the whole-program pass (:mod:`repro.lint.flows`): call-graph
    taint flows from nondeterminism sources to durable sinks,
    all-paths atomic-write verification, pool-shared-state and
    lease-region checks. ``--trace`` prints each flow finding's full
    source→sink call chain; ``--format json``/``sarif`` emit findings
    machine-readably; ``--list-rules`` prints the rule table and zone
    policy.
    """
    import json as _json
    from pathlib import Path as _Path

    from ..lint import DEFAULT_POLICY, Linter
    from ..lint.flows import DEEP_PROJECT_RULES, DEEP_RULES
    from ..lint.rules import DEFAULT_RULES

    if args.list_rules:
        lines = ["rule   name                           zones"]
        deep_ids = {
            rule.rule_id for rule in (*DEEP_RULES, *DEEP_PROJECT_RULES)
        }
        for rule in (*DEFAULT_RULES, *DEEP_RULES, *DEEP_PROJECT_RULES):
            zones = [
                zone.name
                for zone in DEFAULT_POLICY.zones
                if rule.rule_id in zone.rules
            ] or ["project-wide"]
            if rule.rule_id in deep_ids:
                zones.append("deep")
            lines.append(
                f"{rule.rule_id}  {rule.name:<30} {', '.join(zones)}"
            )
            lines.append(f"       {rule.summary}")
        return "\n".join(lines), 0

    paths = [_Path(p) for p in (args.paths or ["src/repro"])]
    for path in paths:
        if not path.exists():
            raise ConfigError(f"no such file or directory: {path}")
    report = Linter(deep=args.deep).lint(paths)
    if args.format == "json":
        text = _json.dumps(report.to_dict(), indent=2)
    elif args.format == "sarif":
        from ..lint.sarif import render_sarif

        text = render_sarif(report)
    else:
        text = report.render(with_trace=args.trace)
    return text, 0 if report.clean else 1
