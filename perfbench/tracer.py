"""Outside-in span tracing of the repro layers, for the traced run.

The benchmark never edits ``src/``: it wraps the public boundary
functions of each layer at run time. Every call through a wrapper
records one span ``(id, parent, name, label, start, end, cell, thread,
extra)``; the parent is the innermost open span of the same thread, so
the records nest exactly like the calls did. ``label`` names the
wrapped function (the coverage check counts calls per label) and
``extra`` carries counts taken at the same point (bytes written,
partition components computed, whether a repair split a subgraph, ...).

A function imported by name (``from .validity import normalize_groups``)
is a separate binding in the importing module, so :meth:`Tracer.install`
rebinds every loaded ``repro`` module attribute that still refers to an
original function; otherwise those calls would go unseen and their time
would silently count as unattributed.

Spans stay in memory. Pool workers fork from the traced process and so
inherit the wrappers; each appends its buffer to ``spans-<pid>.pkl`` in
the spill directory after every cell and whenever its outermost span
closes, and :meth:`Tracer.collect` merges those files with the campaign
process's own buffer when the campaign ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pickle
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Counter slots: calls that are too frequent or too small for a span of
# their own, read as deltas by the span that encloses them.
WCC, HTTP, CAS_LOST = range(3)
COUNTER_NAMES = ("wcc", "http", "cas_lost")

_TRANSPORT_READS = (
    "exists",
    "size",
    "read_text",
    "read_with_version",
    "read_tail",
    "delete",
    "delete_if_match",
    "list_keys",
    "list_runs",
    "litter",
)
#: Transport methods taking ``(key, text, ...)``: their spans carry the
#: bytes written and the lost compare-and-swap rounds inside them.
_TRANSPORT_WRITES = (
    "write_atomic",
    "create_if_absent",
    "put_if_match",
    "append_line",
)
_CODEC_SCHEMES = ("ga", "islands", "sa", "nsga", "two_step")

#: (span name, module, class or None, attributes, extra kind). Layers are
#: the repo's modules; the span name's first component is the layer.
SPANS: tuple[tuple[str, str, str | None, tuple[str, ...], str | None], ...] = (
    ("partition.normalize", "repro.partition.validity", None,
     ("normalize_groups",), "wcc"),
    ("partition.revalidate", "repro.partition.partition", "Partition",
     ("__init__",), None),
    ("ga.search", "repro.ga.engine", "GeneticEngine", ("run", "resume"), None),
    ("ga.search", "repro.ga.annealing", None, ("simulated_annealing",), None),
    ("ga.search", "repro.ga.islands", None, ("island_search",), None),
    ("ga.search", "repro.dse.nsga", None, ("nsga2_co_optimize",), None),
    ("ga.search", "repro.dse.two_step", None,
     ("random_search_ga", "grid_search_ga"), None),
    ("ga.init", "repro.ga.population", None, ("initialize_population",), None),
    ("ga.operators", "repro.ga.crossover", None, ("crossover",), None),
    ("ga.operators", "repro.ga.mutation", None,
     ("modify_node", "split_subgraph", "merge_subgraph", "mutate_dse"), None),
    ("ga.repair", "repro.ga.problem", "OptimizationProblem", ("repair",),
     "changed"),
    ("cost.feasible", "repro.cost.evaluator", "Evaluator", ("feasible",), None),
    ("cost.prime", "repro.cost.evaluator", "Evaluator", ("prime_summaries",),
     "keys"),
    ("cost.summarize", "repro.cost.evaluator", "Evaluator", ("summarize",), None),
    ("cost.evaluate", "repro.cost.evaluator", "Evaluator", ("evaluate",), None),
    ("runs.cell", "repro.runs.suite", "SuiteCellTask", ("__call__",), "cell"),
    ("runs.registry", "repro.runs.registry", "RunRegistry",
     ("is_complete", "has_error", "open_run", "load", "run_node"), None),
    ("runs.registry", "repro.runs.registry", "RunHandle",
     ("finish", "load_result", "record_error", "load_error"), None),
    ("runs.history", "repro.runs.registry", "RunHandle",
     ("log_history", "read_history", "truncate_history"), None),
    ("runs.checkpoint.save", "repro.runs.registry", "RunHandle",
     ("save_checkpoint",), None),
    ("runs.checkpoint.load", "repro.runs.registry", "RunHandle",
     ("load_checkpoint",), "found"),
    ("runs.checkpoint.encode", "repro.runs.checkpoint", None,
     tuple(f"{s}_checkpoint_to_dict" for s in _CODEC_SCHEMES), None),
    ("runs.checkpoint.decode", "repro.runs.checkpoint", None,
     tuple(f"{s}_checkpoint_from_dict" for s in _CODEC_SCHEMES), None),
    ("runs.warm.load", "repro.runs.registry", "RunRegistry",
     ("load_warm_summaries",), None),
    ("runs.warm.save", "repro.runs.registry", "RunRegistry",
     ("save_warm_summaries",), None),
    ("runs.transport", "repro.runs.transport", "FsTransport",
     _TRANSPORT_READS, None),
    ("runs.transport", "repro.runs.transport", "FsTransport",
     _TRANSPORT_WRITES, "io"),
    ("runs.transport", "repro.distrib.objectstore", "ObjectStoreTransport",
     _TRANSPORT_READS, None),
    ("runs.transport", "repro.distrib.objectstore", "ObjectStoreTransport",
     _TRANSPORT_WRITES, "io"),
    ("distrib.lease", "repro.distrib.lease", None,
     ("try_acquire_lease", "renew_lease", "release_lease",
      "break_expired_lease", "read_lease"), "failed"),
    ("distrib.budget", "repro.distrib.budget", None,
     ("campaign_progress", "cell_progress", "claimable_cells",
      "campaign_finished", "compute_allocations"), None),
    ("parallel.map", "repro.parallel.backend", "SerialBackend", ("map",),
     "cells"),
    ("parallel.wait", "repro.parallel.backend", "ProcessPoolBackend", ("map",),
     "cells"),
    ("parallel.chunk", "repro.parallel.backend", None, ("_run_chunk",), None),
    ("parallel.init", "repro.parallel.backend", None, ("_init_worker",), None),
    ("obs.emit", "repro.obs.events", "TelemetrySink", ("emit",), None),
    ("graphs.build", "repro.graphs.zoo.registry", None, ("get_model",), None),
)

#: (counter slot, module, class or None, attribute, count only on this
#: exception class name or None for every call).
COUNTERS: tuple[tuple[int, str, str | None, str, str | None], ...] = (
    (WCC, "repro.partition.subgraph", None, "weakly_connected_components",
     None),
    (HTTP, "repro.distrib.objectstore", "_HttpStore", "_request", None),
    (CAS_LOST, "repro.distrib.objectstore", "_HttpStore", "put",
     "PreconditionFailed"),
)

#: The root span around the campaign entry-point call.
CAMPAIGN_SPAN = "campaign"


def _io_extra(args: tuple, result: Any, delta: int) -> dict:
    """Bytes written by a transport op, classified by registry file."""
    key = args[1]
    kind = (
        "checkpoint" if key.endswith("checkpoint.json")
        else "warm" if key.startswith("warm/")
        else None
    )
    return {"bytes": len(args[2]), "kind": kind, "retries": delta}


def _extra_fn(kind: str | None) -> Callable[[tuple, Any, int], Any] | None:
    if kind == "wcc":
        return lambda args, result, delta: {"wcc": delta}
    if kind == "changed":
        return lambda args, result, delta: (
            {"changed": 1} if result is not None and result is not args[1]
            else None
        )
    if kind == "found":
        return lambda args, result, delta: (
            {"found": 1} if result is not None else None
        )
    if kind == "keys":
        return lambda args, result, delta: {"keys": result or 0}
    if kind == "io":
        return _io_extra
    if kind == "failed":
        return lambda args, result, delta: (
            {"failed": 1} if result is None or result is False else None
        )
    return None


class Tracer:
    """Span recorder for one traced campaign process and its forks."""

    def __init__(self, spill_dir: str | Path):
        self.spill_dir = Path(spill_dir)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.records: list[tuple] = []
        self.counters = [0] * len(COUNTER_NAMES)
        self.cell: str | None = None
        self._local = threading.local()
        self._ids = itertools.count(1).__next__

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def span_wrapper(
        self,
        fn: Callable,
        name: str,
        label: str,
        kind: str | None = None,
    ) -> Callable:
        """``fn`` recording one span per call (see the module docstring)."""
        tracer = self
        extra = _extra_fn(kind)
        counter = (
            WCC if kind == "wcc" else CAS_LOST if kind == "io" else None
        )
        sets_cell = kind == "cell"
        only_cells = kind == "cells"
        if only_cells:
            from repro.runs.suite import SuiteCellTask

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_cells and not isinstance(args[1], SuiteCellTask):
                # In-cell evaluation maps are the search loop's business.
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = tracer._ids()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            if sets_cell:
                outer_cell = tracer.cell
                item = args[1]
                tracer.cell = (item[0] if isinstance(item, tuple) else item).cell_id
            before = tracer.counters[counter] if counter is not None else 0
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                x = None
                if extra is not None:
                    delta = (
                        tracer.counters[counter] - before
                        if counter is not None else 0
                    )
                    x = extra(args, result, delta)
                tracer.records.append((
                    sid, parent, name, label, t0, t1, tracer.cell,
                    threading.get_ident(), x,
                ))
                if sets_cell:
                    tracer.cell = outer_cell
                if tracer.pid != tracer.root_pid and (sets_cell or not stack):
                    tracer.flush()

        return wrapper

    def count_wrapper(
        self, fn: Callable, slot: int, on_error: str | None
    ) -> Callable:
        counters = self.counters

        if on_error is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[slot] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    if type(exc).__name__ == on_error:
                        counters[slot] += 1
                    raise

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> dict[str, Callable]:
        """Wrap every boundary in :data:`SPANS` and :data:`COUNTERS`.

        Returns ``{label: wrapper}``. Module-level functions are also
        rebound in every loaded ``repro`` module that imported them by
        name, so no call path keeps reaching an original.
        """
        replaced: dict[int, Callable] = {}
        wrappers: dict[str, Callable] = {}

        def patch(module: str, cls: str | None, attr: str, make) -> None:
            mod = importlib.import_module(module)
            owner = getattr(mod, cls) if cls else mod
            original = owner.__dict__[attr] if cls else getattr(mod, attr)
            label = f"{module}.{cls + '.' if cls else ''}{attr}"
            wrapper = make(original, label)
            setattr(owner, attr, wrapper)
            wrappers[label] = wrapper
            if cls is None:
                replaced[id(original)] = (original, wrapper)

        for name, module, cls, attrs, kind in SPANS:
            for attr in attrs:
                patch(
                    module, cls, attr,
                    lambda fn, label, name=name, kind=kind: self.span_wrapper(
                        fn, name, label, kind
                    ),
                )
        for slot, module, cls, attr, on_error in COUNTERS:
            patch(
                module, cls, attr,
                lambda fn, label, slot=slot, on_error=on_error: (
                    self.count_wrapper(fn, slot, on_error)
                ),
            )
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
        os.register_at_fork(after_in_child=self._after_fork)
        return wrappers

    def root(self, fn: Callable) -> Callable:
        """``fn`` wrapped in the campaign root span."""
        return self.span_wrapper(fn, CAMPAIGN_SPAN, CAMPAIGN_SPAN)

    # -- process plumbing -----------------------------------------------
    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.records = []
        self.counters[:] = [0] * len(COUNTER_NAMES)
        self._local = threading.local()
        self.cell = None

    def flush(self) -> None:
        """Append this process's buffered spans (and counter totals)."""
        records, self.records = self.records, []
        with open(self.spill_dir / f"spans-{self.pid}.pkl", "ab") as fh:
            pickle.dump((list(self.counters), records), fh)

    def collect(self) -> tuple[list[tuple], dict[str, int]]:
        """Every process's spans as ``(pid, *record)`` plus counter totals.

        Call in the campaign process after the campaign returned (its
        pool has been shut down, so every worker has flushed).
        """
        merged = [(self.pid, *r) for r in self.records]
        totals = list(self.counters)
        for path in sorted(self.spill_dir.glob("spans-*.pkl")):
            pid = int(path.stem.split("-", 1)[1])
            last = [0] * len(COUNTER_NAMES)
            with open(path, "rb") as fh:
                while True:
                    try:
                        counters, records = pickle.load(fh)
                    except EOFError:
                        break
                    last = counters
                    merged.extend((pid, *r) for r in records)
            totals = [a + b for a, b in zip(totals, last)]
        return merged, dict(zip(COUNTER_NAMES, totals))


_ALWAYS = (
    "repro.partition.validity.normalize_groups",
    "repro.partition.partition.Partition.__init__",
    "repro.ga.crossover.crossover",
    "repro.ga.mutation.modify_node",
    "repro.ga.mutation.split_subgraph",
    "repro.ga.mutation.merge_subgraph",
    "repro.ga.mutation.mutate_dse",
    "repro.ga.population.initialize_population",
    "repro.ga.problem.OptimizationProblem.repair",
    "repro.ga.engine.GeneticEngine.run",
    "repro.cost.evaluator.Evaluator.feasible",
    "repro.cost.evaluator.Evaluator.prime_summaries",
    "repro.cost.evaluator.Evaluator.summarize",
    "repro.cost.evaluator.Evaluator.evaluate",
    "repro.runs.suite.SuiteCellTask.__call__",
    "repro.runs.registry.RunRegistry.is_complete",
    "repro.runs.registry.RunRegistry.open_run",
    "repro.runs.registry.RunRegistry.load",
    "repro.runs.registry.RunRegistry.run_node",
    "repro.runs.registry.RunRegistry.load_warm_summaries",
    "repro.runs.registry.RunRegistry.save_warm_summaries",
    "repro.runs.registry.RunHandle.finish",
    "repro.runs.registry.RunHandle.load_result",
    "repro.runs.registry.RunHandle.log_history",
    "repro.runs.registry.RunHandle.save_checkpoint",
    "repro.runs.registry.RunHandle.load_checkpoint",
    "repro.obs.events.TelemetrySink.emit",
    "repro.graphs.zoo.registry.get_model",
)
_SCHEME = {
    "cocco": ("repro.runs.checkpoint.ga_checkpoint_to_dict",),
    "sa": (
        "repro.ga.annealing.simulated_annealing",
        "repro.runs.checkpoint.sa_checkpoint_to_dict",
    ),
    "islands": (
        "repro.ga.islands.island_search",
        "repro.runs.checkpoint.islands_checkpoint_to_dict",
    ),
    "nsga": (
        "repro.dse.nsga.nsga2_co_optimize",
        "repro.runs.checkpoint.nsga_checkpoint_to_dict",
    ),
    "rs": (
        "repro.dse.two_step.random_search_ga",
        "repro.runs.checkpoint.two_step_checkpoint_to_dict",
    ),
    "gs": (
        "repro.dse.two_step.grid_search_ga",
        "repro.runs.checkpoint.two_step_checkpoint_to_dict",
    ),
}
_TRANSPORT_USED = ("exists", "read_text", "write_atomic", "append_line", "delete")
_WORKER = (
    "repro.distrib.budget.campaign_progress",
    "repro.distrib.budget.cell_progress",
    "repro.distrib.budget.claimable_cells",
    "repro.distrib.budget.campaign_finished",
    "repro.distrib.budget.compute_allocations",
    "repro.distrib.lease.try_acquire_lease",
    "repro.distrib.lease.release_lease",
    "repro.runs.registry.RunRegistry.has_error",
    "repro.distrib.objectstore.ObjectStoreTransport.create_if_absent",
    "repro.distrib.objectstore.ObjectStoreTransport.delete_if_match",
)
_POOL = (
    "repro.parallel.backend.ProcessPoolBackend.map",
    "repro.parallel.backend._init_worker",
    "repro.parallel.backend._run_chunk",
)


def missing_coverage(
    workload, labels: set[str], counters: dict[str, int]
) -> list[str]:
    """Wrappers that recorded no calls although ``workload`` runs them.

    Leaves out the calls a healthy campaign makes only sometimes: lease
    renewals (timer-driven), resumes and checkpoint decoding (which cells
    hit their budget depends on the seed), and the error paths.
    """
    required = set(_ALWAYS)
    for scheme in workload.schemes:
        required.update(_SCHEME[scheme])
    if workload.objectstore:
        transport = "repro.distrib.objectstore.ObjectStoreTransport"
        required.update(_WORKER)
    else:
        transport = "repro.runs.transport.FsTransport"
        required.add(
            "repro.parallel.backend.SerialBackend.map"
            if workload.workers == 1 else _POOL[0]
        )
        if workload.workers > 1:
            required.update(_POOL)
    required.update(f"{transport}.{method}" for method in _TRANSPORT_USED)
    missing = sorted(required - labels)
    if not counters.get("wcc"):
        missing.append("repro.partition.subgraph.weakly_connected_components")
    if workload.objectstore and not counters.get("http"):
        missing.append("repro.distrib.objectstore._HttpStore._request")
    return missing
