"""Fold traced spans into the benchmark's per-layer metrics.

Input records are ``(pid, sid, parent, name, label, t0, t1, cell, thread,
extra)`` as :meth:`tracer.Tracer.collect` returns them. A span's *self
time* is its duration minus the part of it that its child spans cover;
the coverage is a union of intervals, so children that overlapped would
still not be counted twice.

A layer's *share* is its self time over the campaign's working time: the
self time of every span inside the campaign window, in every process and
thread, except the parent's pool map, which only waits for the pool
workers. The campaign root's own self time is the part of the
entry-point call that no wrapper covered.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("partition.normalize.calls", "count", "lower"),
    ("partition.normalize.self_s", "s", "lower"),
    ("partition.wcc_per_normalize", "count", "lower"),
    ("partition.revalidate.self_s", "s", "lower"),
    ("partition.share", "ratio", "lower"),
    ("ga.operators.calls", "count", "lower"),
    ("ga.operators.self_s", "s", "lower"),
    ("ga.repair.calls", "count", "lower"),
    ("ga.repair.self_s", "s", "lower"),
    ("ga.repair.changed_ratio", "ratio", "higher"),
    ("ga.init.self_s", "s", "lower"),
    ("ga.share", "ratio", "lower"),
    ("cost.feasible.calls", "count", "lower"),
    ("cost.feasible.self_s", "s", "lower"),
    ("cost.prime.calls", "count", "lower"),
    ("cost.prime.keys", "count", "lower"),
    ("cost.prime.self_s", "s", "lower"),
    ("cost.summarize.self_s", "s", "lower"),
    ("cost.direct_share", "ratio", "higher"),
    ("cost.share", "ratio", "lower"),
    ("runs.checkpoint.writes", "count", "lower"),
    ("runs.checkpoint.bytes", "B", "lower"),
    ("runs.checkpoint.save_s", "s", "lower"),
    ("runs.checkpoint.loads", "count", "lower"),
    ("runs.checkpoint.load_s", "s", "lower"),
    ("runs.history.appends", "count", "lower"),
    ("runs.history.self_s", "s", "lower"),
    ("runs.warm.load_s", "s", "lower"),
    ("runs.warm.save_s", "s", "lower"),
    ("runs.warm.bytes", "B", "lower"),
    ("runs.transport.ops", "count", "lower"),
    ("runs.transport.self_s", "s", "lower"),
    ("runs.share", "ratio", "lower"),
    ("distrib.lease.ops", "count", "lower"),
    ("distrib.lease.self_s", "s", "lower"),
    ("distrib.lease.failed", "count", "lower"),
    ("distrib.budget.calls", "count", "lower"),
    ("distrib.budget.self_s", "s", "lower"),
    ("distrib.worker.idle_s", "s", "lower"),
    ("distrib.objectstore.requests", "count", "lower"),
    ("distrib.objectstore.append_retries", "count", "lower"),
    ("distrib.share", "ratio", "lower"),
    ("parallel.map.wait_s", "s", "lower"),
    ("parallel.pool.start_s", "s", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("parallel.share", "ratio", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.emit.incl_s", "s", "lower"),
    ("obs.share", "ratio", "lower"),
    ("graphs.build_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Layers whose self time is folded into a ``<layer>.share`` metric.
SHARED_LAYERS = ("partition", "ga", "cost", "runs", "distrib", "parallel", "obs")


def self_times(
    spans: Iterable[tuple[object, object, float, float]],
) -> dict[object, float]:
    """``{key: self time}`` for ``(key, parent_key, start, end)`` spans.

    ``parent_key`` is ``None`` for a root. A child is clipped to its
    parent's interval and overlapping children count once.
    """
    spans = list(spans)
    children: dict[object, list[tuple[float, float]]] = defaultdict(list)
    for _key, parent, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for key, _parent, t0, t1 in spans:
        covered = 0.0
        start = end = None
        for s, e in sorted(children.get(key, ())):
            s, e = max(s, t0), min(e, t1)
            if e <= s:
                continue
            if end is None or s > end:
                if end is not None:
                    covered += end - start
                start, end = s, e
            else:
                end = max(end, e)
        if end is not None:
            covered += end - start
        out[key] = (t1 - t0) - covered
    return out


def layer_metrics(
    records: list[tuple],
    counters: dict[str, int],
    campaign_s: float,
    workers: int,
    direct_share: float,
    graph_build_s: float,
    worker_loop: bool = False,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead``.

    ``workers`` is the campaign's pool size (1 without a pool);
    ``direct_share`` comes from the cells' ``evaluator.stats`` events and
    ``graph_build_s`` from the set-up phase, before the campaign root.
    ``worker_loop`` says the campaign was a ``run_worker`` loop, whose
    time outside cells is ``distrib.worker.idle_s``.
    """
    selfs = self_times(
        ((pid, sid), (pid, parent) if parent else None, t0, t1)
        for pid, sid, parent, _name, _label, t0, t1, *_ in records
    )
    root = next(r for r in records if r[3] == "campaign")
    root_pid, root_t0, root_t1 = root[0], root[5], root[6]

    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    working = 0.0
    pool_t0 = None
    pool_up = None
    cells_s = 0.0
    root_cells_s = 0.0
    for pid, sid, _parent, name, label, t0, t1, _cell, _tid, x in records:
        own = selfs[(pid, sid)]
        count[name] += 1
        self_s[name] += own
        incl_s[name] += t1 - t0
        method = label.rsplit(".", 1)[-1]
        count[f"{name}:{method}"] += 1
        if x:
            for key, value in x.items():
                if isinstance(value, (int, float)):
                    extra[f"{name}:{key}"] += value
            if name == "runs.transport":
                if x.get("kind"):
                    extra[f"bytes:{x['kind']}"] += x["bytes"]
                if method == "append_line":
                    extra["append_retries"] += x.get("retries", 0)
        if name == "parallel.wait" and (pool_t0 is None or t0 < pool_t0):
            pool_t0 = t0
        if name == "parallel.init" and (pool_up is None or t1 > pool_up):
            pool_up = t1
        if name == "runs.cell":
            cells_s += t1 - t0
            if pid == root_pid:
                root_cells_s += t1 - t0
        in_campaign = pid != root_pid or (t0 >= root_t0 and t1 <= root_t1)
        if in_campaign and name != "parallel.wait":
            working += own
            layer_self[name.split(".", 1)[0]] += own

    def share(layer: str) -> float:
        return layer_self[layer] / working if working else 0.0

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    normalize_calls = count["partition.normalize"]
    repair_calls = count["ga.repair"]
    metrics = {
        "partition.normalize.calls": normalize_calls,
        "partition.normalize.self_s": self_s["partition.normalize"],
        "partition.wcc_per_normalize": per(
            extra["partition.normalize:wcc"], normalize_calls
        ),
        "partition.revalidate.self_s": self_s["partition.revalidate"],
        "partition.share": share("partition"),
        "ga.operators.calls": count["ga.operators"],
        "ga.operators.self_s": self_s["ga.operators"],
        "ga.repair.calls": repair_calls,
        "ga.repair.self_s": self_s["ga.repair"],
        "ga.repair.changed_ratio": per(
            extra["ga.repair:changed"], repair_calls
        ),
        "ga.init.self_s": self_s["ga.init"],
        "ga.share": share("ga"),
        "cost.feasible.calls": count["cost.feasible"],
        "cost.feasible.self_s": self_s["cost.feasible"],
        "cost.prime.calls": count["cost.prime"],
        "cost.prime.keys": int(extra["cost.prime:keys"]),
        "cost.prime.self_s": self_s["cost.prime"],
        "cost.summarize.self_s": self_s["cost.summarize"],
        "cost.direct_share": direct_share,
        "cost.share": share("cost"),
        "runs.checkpoint.writes": count["runs.checkpoint.save"],
        "runs.checkpoint.bytes": int(extra["bytes:checkpoint"]),
        "runs.checkpoint.save_s": (
            incl_s["runs.checkpoint.save"] + incl_s["runs.checkpoint.encode"]
        ),
        "runs.checkpoint.loads": int(extra["runs.checkpoint.load:found"]),
        "runs.checkpoint.load_s": (
            incl_s["runs.checkpoint.load"] + incl_s["runs.checkpoint.decode"]
        ),
        "runs.history.appends": count["runs.history:log_history"],
        "runs.history.self_s": self_s["runs.history"],
        "runs.warm.load_s": incl_s["runs.warm.load"],
        "runs.warm.save_s": incl_s["runs.warm.save"],
        "runs.warm.bytes": int(extra["bytes:warm"]),
        "runs.transport.ops": count["runs.transport"],
        "runs.transport.self_s": self_s["runs.transport"],
        "runs.share": share("runs"),
        "distrib.lease.ops": count["distrib.lease"],
        "distrib.lease.self_s": self_s["distrib.lease"],
        "distrib.lease.failed": int(extra["distrib.lease:failed"]),
        "distrib.budget.calls": count["distrib.budget"],
        "distrib.budget.self_s": self_s["distrib.budget"],
        "distrib.worker.idle_s": (
            campaign_s - root_cells_s if worker_loop else 0.0
        ),
        "distrib.objectstore.requests": counters.get("http", 0),
        "distrib.objectstore.append_retries": int(extra["append_retries"]),
        "distrib.share": share("distrib"),
        "parallel.map.wait_s": self_s["parallel.wait"] + self_s["parallel.map"],
        "parallel.pool.start_s": (
            pool_up - pool_t0 if pool_t0 is not None and pool_up else 0.0
        ),
        "parallel.busy_ratio": per(cells_s, workers * campaign_s),
        "parallel.share": share("parallel"),
        "obs.events": count["obs.emit"],
        "obs.emit.incl_s": incl_s["obs.emit"],
        "obs.share": share("obs"),
        "graphs.build_s": graph_build_s,
        "trace.unattributed_share": per(selfs[(root_pid, root[1])], campaign_s),
    }
    return metrics

