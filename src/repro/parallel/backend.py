"""The cell runner ``run_suite`` maps a campaign's cells with.

Cocco's evidence is a matrix of independent co-explorations, so a
campaign's one level of parallelism is its cells: every search runs in
the process that owns it, and :func:`resolve_backend` turns ``repro
suite --workers N`` into one of two runners:

* :class:`SerialBackend` — runs every cell in the calling process;
* :class:`ProcessPoolBackend` — fans cells out to a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`. The task is shipped
  once per worker through the pool initializer, and the items go out in
  about four chunks per worker.

``_init_worker`` and ``_run_chunk`` are module-level functions that
are looked up when the pool is built and whenever a chunk is submitted,
so a wrapper installed on either name (perfbench's tracer) sees every
call.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from ..errors import ConfigError

#: Chunks per worker: small enough to balance uneven cells, large
#: enough to amortize pickling.
_CHUNKS_PER_WORKER = 4


class SerialBackend:
    """Runs every item in the calling process."""

    def map(self, task: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        return [task(item) for item in items]

    def close(self) -> None:  # nothing to release
        return None


# ---------------------------------------------------------------------------
# Worker-process plumbing. The task is shipped once per worker through the
# pool initializer; chunks then reference it through a module global.
# ---------------------------------------------------------------------------
_WORKER_TASK: Callable[[Any], Any] | None = None


def _init_worker(task: Callable[[Any], Any]) -> None:
    global _WORKER_TASK
    _WORKER_TASK = task


def _run_chunk(chunk: list[Any]) -> list[Any]:
    """Run one chunk of items in a worker."""
    task = _WORKER_TASK
    assert task is not None, "worker used before initialization"
    return [task(item) for item in chunk]


class ProcessPoolBackend:
    """Fans items out to ``workers`` processes; results in input order.

    The pool is created lazily on the first :meth:`map` call and is keyed
    to the task object's identity: mapping a *different* task tears the
    pool down and rebuilds it with the new task. An exception raised in
    a worker propagates to the caller. A worker that dies (OOM kill,
    segfault, ``os._exit``) breaks the pool for good, so :meth:`map`
    tears it down before re-raising :class:`BrokenProcessPool`, and the
    next call builds a fresh one.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError("ProcessPoolBackend needs at least one worker")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._pool_task: Callable[[Any], Any] | None = None

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

    def map(self, task: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        items = list(items)
        if not items:
            return []
        size = math.ceil(len(items) / (self.workers * _CHUNKS_PER_WORKER))
        pool = self._executor_for(task)
        try:
            # submit() raises BrokenProcessPool too (a worker can die
            # during pool spin-up), so it lives inside the teardown guard.
            futures = [
                pool.submit(_run_chunk, items[start : start + size])
                for start in range(0, len(items), size)
            ]
            return [result for future in futures for result in future.result()]
        except BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_task = None


def resolve_backend(workers: int) -> SerialBackend | ProcessPoolBackend:
    """The cell runner for ``workers`` processes: serial for 0 or 1."""
    if workers < 0:
        raise ConfigError("worker count must be non-negative")
    if workers <= 1:
        return SerialBackend()
    return ProcessPoolBackend(workers)
