"""One benchmark campaign in a fresh interpreter: set up, run, report.

``run.py`` starts this script once per campaign (and once per set-up
probe), so every campaign pays a user's set-up costs and starts from a
fresh, empty registry. It writes one JSON object to ``--out``:

* ``setup_s``: import ``repro``, build every matrix network (``get_model``
  plus its per-layer arrays), open the registry and, for the object-store
  workload, have the store up (it starts first, beside the import);
  ``graph_build_s`` is the network part;
* ``campaign_s``: wall-clock of the ``run_suite`` / ``run_worker`` call;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of this process and its
  reaped pool workers;
* the facts the correctness gate needs: cell counts by final state,
  evaluations spent (counted like ``distrib.budget.campaign_progress``)
  and the merged report's digest;
* with ``--trace``, the per-layer metrics of the traced campaign and the
  wrappers that recorded no calls although the workload runs them.

Run by hand from the repository root::

    PYTHONPATH=src python3 perfbench/campaign.py --workload suite-serial \\
        --seed 0 --work /tmp/cb --out /tmp/cb/result.json
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, Workload, report_digest  # noqa: E402


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _direct_share(registry, matrix) -> float:
    """Direct-solve share of batch-priced keys, from ``evaluator.stats``."""
    from repro.obs import TELEMETRY_FILENAME

    direct = priced = 0
    for cell in matrix.cells():
        node = registry.run_node(cell.config_dict(), cell.seed(matrix.seed))
        text = node.read_text(TELEMETRY_FILENAME) or ""
        for line in text.splitlines():
            if '"evaluator.stats"' not in line:
                continue
            stats = json.loads(line).get("stats", {})
            direct += stats.get("batch_direct", 0)
            priced += stats.get("batch_priced", 0)
    return direct / priced if priced else 0.0


def run_campaign(
    workload: Workload,
    seed: int,
    work: Path,
    trace: bool = False,
    setup_only: bool = False,
    reference: bool = False,
) -> dict:
    """Set up and run one campaign; ``reference`` runs the same matrix and
    budget through a serial filesystem ``run_suite`` instead."""
    objectstore = workload.objectstore and not reference
    workers = 1 if reference else workload.workers
    store = None
    if objectstore:
        # The bundled fake object store, as its own process; it starts
        # while this interpreter imports repro, as a standing store would.
        store = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib.objectstore"],
            stdout=subprocess.PIPE,
            text=True,
        )
    try:
        return _set_up_and_run(
            workload, seed, work, trace, setup_only, workers, store
        )
    finally:
        if store is not None:
            _stop(store)


def _set_up_and_run(
    workload: Workload,
    seed: int,
    work: Path,
    trace: bool,
    setup_only: bool,
    workers: int,
    store: subprocess.Popen | None,
) -> dict:
    from repro.distrib.budget import campaign_progress
    from repro.distrib.worker import WorkerConfig, run_worker
    from repro.graphs.zoo import get_model
    from repro.runs.registry import RunRegistry
    from repro.runs.suite import classify_campaign, merged_report, run_suite

    tracer = None
    if trace:
        from tracer import Tracer

        spill = work / "spans"
        spill.mkdir(parents=True)
        tracer = Tracer(spill)
        tracer.install()

    matrix = workload.matrix(seed)
    build_started = time.perf_counter()
    for network in matrix.networks:
        graph = get_model(network)
        for bpe in matrix.bytes_per_element:
            graph.arrays(bpe)
    graph_build_s = time.perf_counter() - build_started
    if store is not None:
        root = store.stdout.readline().strip()
        if not root.startswith("s3://"):
            raise RuntimeError("object store did not report its URL")
    else:
        root = str(work / "registry")
    registry = RunRegistry(root)
    setup_s = time.perf_counter() - _STARTED
    out: dict = {"setup_s": setup_s, "graph_build_s": graph_build_s}
    if setup_only:
        return out

    if store is not None:
        def entry():
            return run_worker(matrix, root, WorkerConfig(), budget=workload.budget)
    else:
        def entry():
            return run_suite(
                matrix, root, workers=workers, budget=workload.budget
            )

    if tracer is not None:
        entry = tracer.root(entry)
    error = None
    started = time.perf_counter()
    try:
        entry()
    except Exception as exc:  # the gate reports it; unfinished cells fail
        error = f"{type(exc).__name__}: {exc}"
    campaign_s = time.perf_counter() - started
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        records, counters = tracer.collect()

    cells = matrix.cells()
    tally = classify_campaign(registry, cells, matrix.seed, workload.budget)
    progress = campaign_progress(registry, cells, matrix.seed)
    out.update(
        campaign_s=campaign_s,
        peak_rss_mb=peak_kb / 1024.0,
        cells=len(cells),
        complete=len(tally.completed),
        exhausted=len(tally.exhausted),
        failed=len(tally.failed) + len(tally.incomplete),
        evaluations=sum(p.evaluations for p in progress.values()),
        digest=report_digest(merged_report(matrix, registry)),
        error=error,
    )
    if tracer is not None:
        from layers import layer_metrics
        from tracer import missing_coverage

        out["layers"] = layer_metrics(
            records,
            counters,
            campaign_s=campaign_s,
            workers=workers,
            direct_share=_direct_share(registry, matrix),
            graph_build_s=graph_build_s,
            worker_loop=store is not None,
        )
        out["unseen"] = missing_coverage(
            workload, {r[4] for r in records}, counters
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    result = run_campaign(
        WORKLOADS[args.workload], args.seed, args.work, trace=args.trace,
        setup_only=args.setup_only, reference=args.reference,
    )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
