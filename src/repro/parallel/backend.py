"""Population-evaluation backends for the co-exploration search loops.

The genetic co-exploration of Sec 4.4 evaluates ~100-genome populations
for ~50 generations, and every genome evaluation prices its subgraphs
through the simulator — the single hottest path in the repository. Genome
evaluation is *pure* (a deterministic function of the genome and the
frozen accelerator/memory configuration), so a generation's unevaluated
genomes can fan out to worker processes without changing any result: the
search loops stay bit-identical to serial execution for a fixed seed,
only the wall-clock changes.

Two backends implement the :class:`EvaluationBackend` protocol:

* :class:`SerialBackend` — evaluates in the calling process; the default
  and the reference behavior.
* :class:`ProcessPoolBackend` — fans batches out to a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`. Each worker holds its
  own evaluation task (and therefore its own :class:`~repro.cost.
  evaluator.Evaluator` with its LRU profile/cost caches), initialized
  once per pool so the task is pickled once instead of per genome.
  Genomes are shipped in chunks to amortize pickling overhead; after
  every map call the workers' evaluator cache statistics are merged
  back into the parent's counters, and their freshly priced subgraph
  summaries are shipped to every process.

Tasks are plain picklable callables (see :mod:`repro.parallel.tasks`);
the backend layer knows nothing about genomes or evaluators, which keeps
it import-cycle-free beneath :mod:`repro.ga` and :mod:`repro.dse`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..errors import ConfigError
from ..obs import span

#: Chunks per worker when no explicit chunk size is given: small enough to
#: load-balance uneven genomes, large enough to amortize pickling.
_CHUNKS_PER_WORKER = 4


@runtime_checkable
class EvaluationBackend(Protocol):
    """Maps a picklable task over a batch of items, preserving order."""

    def map(self, task: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Return ``[task(item) for item in items]`` (possibly in parallel)."""
        ...

    def close(self) -> None:
        """Release any worker resources; the backend may be reused after."""
        ...


class SerialBackend:
    """Reference backend: evaluates every item in the calling process."""

    def map(self, task: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        with span("parallel.map", backend="serial", items=len(items)):
            if hasattr(task, "prime"):
                # Batch-price the whole batch's unseen subgraphs first (pure
                # cache fill — per-item results are bit-identical).
                task.prime(items)
            return [task(item) for item in items]

    def close(self) -> None:  # nothing to release
        return None

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker-process plumbing. The task is shipped once per worker through the
# pool initializer; chunks then reference it through a module global.
# ---------------------------------------------------------------------------
_WORKER_TASK: Callable[[Any], Any] | None = None
_WORKER_WARM = False


def _init_worker(task: Callable[[Any], Any]) -> None:
    global _WORKER_TASK, _WORKER_WARM
    _WORKER_TASK = task
    _WORKER_WARM = hasattr(task, "enable_warm")
    if _WORKER_WARM:
        task.enable_warm()


def _run_chunk(
    chunk: list[Any], warm: list[Any] | None = None
) -> tuple[list[Any], dict[str, float] | None, list[Any] | None]:
    """Evaluate one chunk in a worker.

    Returns results plus the stats deltas and the warm-state entries
    (fresh per-subgraph summaries) this chunk produced. ``warm`` carries
    the other processes' entries from the previous round; absorbing them
    is idempotent and lets this worker skip re-pricing those subgraphs.
    """
    task = _WORKER_TASK
    assert task is not None, "worker used before initialization"
    if warm and hasattr(task, "absorb_warm"):
        task.absorb_warm(warm)
    before = task.stats() if hasattr(task, "stats") else None
    if hasattr(task, "prime"):
        # Batch-price the chunk's unseen subgraphs (after absorbing warm
        # state, so already-shipped summaries are not re-priced).
        task.prime(chunk)
    results = [task(item) for item in chunk]
    fresh = task.drain_warm() if _WORKER_WARM else None
    if before is None:
        return results, None, fresh
    after = task.stats()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    return results, delta, fresh


class ProcessPoolBackend:
    """Fans batches out to worker processes, each with its own caches.

    The pool is created lazily on the first :meth:`map` call and is keyed
    to the task object's identity: mapping a *different* task tears the
    pool down and rebuilds it with the new task, so callers should reuse
    one task object per search run (the search loops do this through
    :meth:`repro.ga.problem.OptimizationProblem.cost_batch`). Results come
    back in input order, and any exception raised inside a worker
    propagates to the caller.

    Besides ``prime``, two task protocols (see :mod:`repro.parallel.
    tasks`) are honoured whenever the task exposes them:

    * ``stats()`` / ``absorb_stats()``: the workers' evaluator cache
      counters are folded back into the parent task after every map.
    * the warm-state protocol (``enable_warm`` / ``drain_warm`` /
      ``absorb_warm``): each map ships the previous round's freshly
      computed per-subgraph summaries to every chunk and collects this
      round's back, so no subgraph is priced twice across the whole
      pool. Purely an exchange of already-computed values — results
      stay bit-identical to serial evaluation.

    Parameters
    ----------
    workers:
        Worker-process count; defaults to ``os.cpu_count()``.
    chunk_size:
        Genomes per work unit. Defaults to splitting the batch into
        roughly four chunks per worker.
    """

    #: Upper bound on warm entries carried between rounds (a runaway
    #: guard; one entry is a few hundred bytes).
    _WARM_OUTBOX_CAP = 50_000

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigError("ProcessPoolBackend needs at least one worker")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError("chunk size must be positive")
        self.workers = workers
        self.chunk_size = chunk_size
        self._pool: ProcessPoolExecutor | None = None
        self._pool_task: Callable[[Any], Any] | None = None
        self._warm_outbox: list[Any] = []

    # ------------------------------------------------------------------
    def _chunks(self, items: list[Any]) -> list[list[Any]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(items) / (self.workers * _CHUNKS_PER_WORKER)))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _executor_for(self, task: Callable[[Any], Any]) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_task is not task:
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(task,),
            )
            self._pool_task = task
        return self._pool

    # ------------------------------------------------------------------
    def map(self, task: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        items = list(items)
        if not items:
            return []
        with span(
            "parallel.map", backend="process", items=len(items),
            workers=self.workers,
        ):
            return self._map_pooled(task, items)

    def _map_pooled(
        self, task: Callable[[Any], Any], items: list[Any]
    ) -> list[Any]:
        pool = self._executor_for(task)
        warm_capable = hasattr(task, "absorb_warm")
        shipment = self._warm_outbox if warm_capable else None
        results: list[Any] = []
        merged: dict[str, float] = {}
        fresh: dict[Any, Any] = {}
        try:
            # submit() raises BrokenProcessPool too (a worker can die
            # during pool spin-up), so it lives inside the teardown guard.
            futures = [
                pool.submit(_run_chunk, chunk, shipment)
                for chunk in self._chunks(items)
            ]
            for future in futures:
                chunk_results, delta, chunk_warm = future.result()
                results.extend(chunk_results)
                if delta:
                    for key, value in delta.items():
                        merged[key] = merged.get(key, 0) + value
                if warm_capable and chunk_warm:
                    fresh.update(chunk_warm)
        except BrokenProcessPool:
            # A worker died (OOM kill, segfault, os._exit). The executor
            # is permanently broken, so tear it down before re-raising:
            # the next map on this backend builds a fresh pool, letting
            # callers retry the batch instead of inheriting a dead pool.
            self.close()
            raise
        if merged and hasattr(task, "absorb_stats"):
            task.absorb_stats(merged)
        if warm_capable:
            # This round's fresh summaries become the next round's
            # shipment (workers already hold everything shipped earlier),
            # and the parent absorbs them so its own serial evaluations
            # stay warm too.
            entries = list(fresh.items())
            task.absorb_warm(entries)
            self._warm_outbox = entries[-self._WARM_OUTBOX_CAP:]
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_task = None
            self._warm_outbox = []

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def resolve_backend(workers: int | None) -> EvaluationBackend:
    """Backend for a worker-count setting: serial for ``None``/``0``/``1``."""
    if workers is None or workers in (0, 1):
        return SerialBackend()
    if workers < 0:
        raise ConfigError("worker count must be non-negative")
    return ProcessPoolBackend(workers=workers)


def cached_map(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    backend: EvaluationBackend,
    key: Callable[[Any], Any],
    lookup: Callable[[Any], Any],
    store: Callable[[Any, Any, Any], Any],
) -> list[Any]:
    """Map ``task`` over ``items``, serving repeats and known keys from a cache.

    The caller provides the cache through three callables: ``key(item)``
    yields the identity, ``lookup(key)`` returns a previous result or
    ``None``, and ``store(key, item, value)`` records a fresh evaluation
    and returns the object to place in the output (letting callers wrap
    the raw value, e.g. into an objective-space point). Only *unique*
    cache misses reach ``backend.map``, in first-occurrence order, so
    evaluation counts match a serial in-order sweep exactly. Both the GA
    fitness cache and the NSGA-II archive batch through here.
    """
    results: list[Any] = []
    pending: dict[Any, list[int]] = {}
    unique: list[Any] = []
    for index, item in enumerate(items):
        item_key = key(item)
        hit = lookup(item_key)
        results.append(hit)
        if hit is None:
            if item_key not in pending:
                pending[item_key] = []
                unique.append(item)
            pending[item_key].append(index)
    if unique:
        values = backend.map(task, unique)
        for item, value in zip(unique, values):
            item_key = key(item)
            final = store(item_key, item, value)
            for index in pending[item_key]:
                results[index] = final
    return results
