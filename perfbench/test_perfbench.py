"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    check_campaign,
    committed_digests,
    report_digest,
)


# ---------------------------------------------------------------------------
# Self-time fold
# ---------------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    spans = [
        ("root", None, 0.0, 10.0),
        ("a", "root", 1.0, 4.0),
        ("b", "root", 5.0, 7.0),
        ("a1", "a", 2.0, 3.0),
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx(
        {"root": 5.0, "a": 2.0, "b": 2.0, "a1": 1.0}
    )


def test_overlapping_siblings_are_not_double_counted():
    spans = [
        ("p", None, 0.0, 10.0),
        ("c1", "p", 1.0, 5.0),
        ("c2", "p", 3.0, 6.0),
        ("c3", "p", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert layers.self_times(spans)["p"] == pytest.approx(10.0 - 5.0 - 1.0)


def _record(pid, sid, parent, name, t0, t1, x=None, label=None):
    return (pid, sid, parent, name, label or name, t0, t1, None, 1, x)


def test_serial_shares_and_unattributed_cover_the_campaign():
    records = [
        _record(1, 1, 0, "campaign", 0.0, 10.0),
        _record(1, 2, 1, "runs.cell", 0.5, 9.5),
        _record(1, 3, 2, "ga.search", 1.0, 9.0),
        _record(1, 4, 3, "partition.normalize", 2.0, 6.0, {"wcc": 8}),
        _record(1, 5, 4, "partition.revalidate", 5.0, 6.0),
        _record(1, 6, 3, "cost.feasible", 7.0, 8.0),
    ]
    metrics = layers.layer_metrics(
        records, {}, campaign_s=10.0, workers=1, direct_share=0.5,
        graph_build_s=0.1,
    )
    assert metrics["partition.normalize.self_s"] == pytest.approx(3.0)
    assert metrics["partition.wcc_per_normalize"] == pytest.approx(8.0)
    assert metrics["partition.share"] == pytest.approx(0.4)
    assert metrics["cost.share"] == pytest.approx(0.1)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.1)
    shares = sum(metrics[f"{layer}.share"] for layer in layers.SHARED_LAYERS)
    assert shares + metrics["trace.unattributed_share"] == pytest.approx(1.0)
    assert metrics["parallel.busy_ratio"] == pytest.approx(0.9)


def test_pool_wait_is_not_working_time():
    records = [
        _record(1, 1, 0, "campaign", 0.0, 10.0),
        _record(1, 2, 1, "parallel.wait", 0.0, 10.0),
        _record(2, 1, 0, "parallel.init", 0.1, 0.2),
        _record(2, 2, 0, "parallel.chunk", 0.2, 9.0),
        _record(2, 3, 2, "runs.cell", 0.2, 9.0),
        _record(2, 4, 3, "partition.normalize", 1.0, 5.0),
    ]
    metrics = layers.layer_metrics(
        records, {}, campaign_s=10.0, workers=2, direct_share=0.0,
        graph_build_s=0.1,
    )
    assert metrics["parallel.map.wait_s"] == pytest.approx(10.0)
    assert metrics["parallel.pool.start_s"] == pytest.approx(0.2)
    assert metrics["parallel.busy_ratio"] == pytest.approx(8.8 / 20.0)
    assert metrics["partition.share"] == pytest.approx(4.0 / 8.9)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------
def _report(rows):
    return SimpleNamespace(
        experiment="suite: 2 cells", headers=("network", "best_cost"),
        rows=rows, notes=[], extra={"campaign_seed": 0},
    )


def _outcome(digest, **counts):
    base = {"cells": 2, "complete": 2, "exhausted": 0, "failed": 0,
            "evaluations": 100, "digest": digest}
    base.update(counts)
    return base


def test_digest_gate_rejects_one_changed_cell():
    workload = WORKLOADS["suite-serial"]
    good = report_digest(_report([("googlenet", 1.25), ("resnet50", 2.5)]))
    changed = report_digest(
        _report([("googlenet", 1.25), ("resnet50", 2.5000000000000004)])
    )
    assert check_campaign(workload, _outcome(good), good) == []
    problems = check_campaign(workload, _outcome(changed), good)
    assert problems and "digest" in problems[0]


def test_gate_requires_every_cell_and_the_exact_budget():
    serial = WORKLOADS["suite-serial"]
    assert check_campaign(serial, _outcome("d", complete=1), "d")
    budgeted = WORKLOADS["worker-objectstore"]
    at_budget = _outcome(
        "d", cells=24, complete=18, exhausted=6, evaluations=1500
    )
    assert check_campaign(budgeted, at_budget, "d") == []
    over = dict(at_budget, evaluations=1501)
    assert check_campaign(budgeted, over, "d")


def test_committed_digests_cover_the_default_seed():
    for workload in WORKLOADS.values():
        assert sorted(committed_digests(workload)) == (
            workload.campaign_seeds(DEFAULT_SEED)
        )


# ---------------------------------------------------------------------------
# Host-speed rescaling
# ---------------------------------------------------------------------------
def test_scale_averages_the_samples_inside_the_campaign():
    probe = run.SpeedProbe()
    ref = run.PROBE_REFERENCE_S
    probe.samples = [(0.5, 9 * ref), (1.0, ref), (2.0, 3 * ref), (3.5, 9 * ref)]
    assert probe.scale(0.9, 3.0) == pytest.approx(0.5)
    with pytest.raises(run.CampaignFailed):
        probe.scale(4.0, 5.0)


def test_rescale_touches_times_only():
    result = {
        "setup_s": 0.4, "graph_build_s": 0.1, "campaign_s": 3.0,
        "evaluations": 1000, "peak_rss_mb": 80.0,
        "layers": {"partition.normalize.self_s": 1.0,
                   "partition.normalize.calls": 500, "partition.share": 0.5},
    }
    run.rescale(result, 0.5)
    assert result["campaign_s"] / result["scale"] == pytest.approx(3.0)
    assert (result["setup_s"], result["graph_build_s"], result["campaign_s"]) \
        == pytest.approx((0.2, 0.05, 1.5))
    assert (result["evaluations"], result["peak_rss_mb"]) == (1000, 80.0)
    assert result["layers"] == pytest.approx(
        {"partition.normalize.self_s": 0.5,
         "partition.normalize.calls": 500, "partition.share": 0.5}
    )


def test_every_campaign_seed_weighs_alike():
    campaigns = [
        {"seed": 3, "campaign_s": t} for t in (4.0, 4.1, 9.0)
    ] + [{"seed": 4, "campaign_s": 3.0}]
    assert run.seed_mean(campaigns, lambda c: c["campaign_s"]) == (
        pytest.approx((4.1 + 3.0) / 2)
    )
    assert WORKLOADS["suite-serial"].campaign_seeds(1) == [3, 4, 5]
    assert WORKLOADS["suite-pool"].campaign_seeds(0) == [0, 1]


# ---------------------------------------------------------------------------
# Printed metric names
# ---------------------------------------------------------------------------
def _fake_campaign(workload, traced):
    result = {
        "setup_s": 0.5, "graph_build_s": 0.1, "campaign_s": 2.0,
        "peak_rss_mb": 80.0, "cells": 4, "complete": 4, "exhausted": 0,
        "failed": 0, "evaluations": 1000, "digest": "d", "error": None,
        "scale": 1.0,
    }
    if workload.budget is not None:
        result.update(
            cells=4, complete=3, exhausted=1, evaluations=workload.budget
        )
    if traced:
        names = [name for name, _u, _b in layers.PER_LAYER]
        result["layers"] = {n: 1.0 for n in names if n != "trace.overhead"}
        result["unseen"] = []
    return result


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_equal_benchmark_json(monkeypatch, tmp_path, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        monkeypatch.setattr(
            run.Runner, "campaign",
            lambda self, seed, trace=False, setup_only=False, w=workload: (
                dict(_fake_campaign(w, trace), seed=seed)
            ),
        )
        result = run.measure(workload, 1, 0.0, trace, tmp_path / name)
        assert result["correct"] and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
        if not trace:
            assert all(v["value"] != 0 for v in result["metrics"].values())


# ---------------------------------------------------------------------------
# Wrapper coverage
# ---------------------------------------------------------------------------
_BINDINGS = """
import sys
from tracer import Tracer
import repro.runs.suite, repro.distrib.worker, repro.partition.greedy
import repro.partition.dp
t = Tracer(sys.argv[1])
wrappers = t.install()
import importlib
def check(module, attr, label):
    assert getattr(importlib.import_module(module), attr) is wrappers[label], (
        module, attr)
norm = "repro.partition.validity.normalize_groups"
for m in ("ga.mutation", "ga.crossover", "partition.random_init",
          "partition.greedy", "partition.dp"):
    check("repro." + m, "normalize_groups", norm)
for m in ("ga.engine", "ga.annealing", "dse.nsga"):
    for op in ("modify_node", "split_subgraph", "merge_subgraph", "mutate_dse"):
        check("repro." + m, op, "repro.ga.mutation." + op)
for m in ("ga.engine", "dse.nsga"):
    check("repro." + m, "crossover", "repro.ga.crossover.crossover")
for s in ("ga", "islands", "sa", "nsga", "two_step"):
    for d in ("to", "from"):
        name = f"{s}_checkpoint_{d}_dict"
        check("repro.runs.suite", name, "repro.runs.checkpoint." + name)
print("ok")
"""


def test_wrappers_replace_every_by_name_binding(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    proc = subprocess.run(
        [sys.executable, "-c", _BINDINGS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
