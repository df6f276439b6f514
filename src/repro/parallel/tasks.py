"""Picklable evaluation tasks shipped to backend workers.

A task wraps the objects a worker needs to price genomes — the
:class:`~repro.ga.problem.OptimizationProblem` (and through it the
:class:`~repro.cost.evaluator.Evaluator` with its LRU caches) — behind a
plain ``__call__``. The task is pickled once per worker at pool startup,
so each worker evolves its own caches across a whole search run instead
of re-pickling state per genome — and because the parent's evaluator
state rides along in that pickle, workers start with whatever profile
and summary caches the parent had already warmed (e.g. from in-situ
repair of the first population).

Tasks optionally expose duck-typed protocols the backend layer uses:

* ``prime(items)`` — population batch pricing: before evaluating a
  batch/chunk item-by-item, all its unseen subgraphs are priced at once
  through :meth:`~repro.cost.evaluator.Evaluator.prime_summaries`
  (shape-class tensor batching + closed-form direct solves). A pure
  cache fill — per-item results are bit-identical with or without it.
* ``stats()`` / ``absorb_stats()`` — cache counters and stage timings,
  merged back into the parent after every map so
  ``num_profile_calls`` / ``num_cost_calls`` / ``timings`` reflect the
  whole run's work no matter where it executed.
* ``enable_warm()`` / ``drain_warm()`` / ``absorb_warm()`` — cache-warm
  state: compact per-subgraph summary scalars freshly computed by one
  process, shipped to the others so no subgraph is priced twice across
  the pool. Evaluation is pure, so absorbed entries are bit-identical
  to what the receiver would have computed itself.

The classes here reference the problem and evaluator purely through duck
typing, keeping :mod:`repro.parallel` importable from anywhere in the
package without cycles.
"""

from __future__ import annotations

from typing import Any, Iterable


class _EvaluatorStatsMixin:
    """Cache-statistics and warm-state plumbing for evaluator tasks."""

    problem: Any

    def stats(self) -> dict[str, float]:
        return self.problem.evaluator.stats()

    def absorb_stats(self, delta: dict[str, float]) -> None:
        self.problem.evaluator.absorb_stats(delta)

    # Warm-state protocol (see repro.parallel.backend).
    def enable_warm(self) -> None:
        self.problem.evaluator.enable_summary_log()

    def drain_warm(self) -> list[tuple]:
        return self.problem.evaluator.drain_summary_log()

    def absorb_warm(self, entries: Iterable[tuple]) -> None:
        self.problem.evaluator.absorb_summaries(entries)


class CostTask(_EvaluatorStatsMixin):
    """Scalar Formula 1/2 objective of one genome (GA / SA / two-step)."""

    def __init__(self, problem: Any) -> None:
        self.problem = problem

    def prime(self, genomes: Iterable[Any]) -> None:
        """Batch-price a chunk's unseen subgraphs before per-genome calls."""
        self.problem.prime(list(genomes))

    def __call__(self, genome: Any) -> float:
        return self.problem.cost(genome)


class ParetoCostTask(_EvaluatorStatsMixin):
    """Metric cost of one genome under its own memory (NSGA-II).

    Returns only the metric axis; the capacity axis is a pure attribute
    of the genome's memory configuration and is derived in the parent.
    """

    def __init__(self, problem: Any, metric: Any) -> None:
        self.problem = problem
        self.metric = metric

    def prime(self, genomes: Iterable[Any]) -> None:
        """Batch-price a chunk's unseen subgraphs before per-genome calls."""
        genomes = list(genomes)
        if genomes:
            self.problem.evaluator.prime_summaries(
                [g.partition.subgraph_sets for g in genomes],
                [g.memory for g in genomes],
            )

    def __call__(self, genome: Any) -> float:
        from ..cost.objective import partition_objective

        cost = self.problem.evaluator.summarize(
            genome.partition.subgraph_sets, genome.memory
        )
        if not cost.feasible:
            return float("inf")
        return partition_objective(cost, self.metric)
