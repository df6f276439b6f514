"""Durable, resumable experiment orchestration.

* :mod:`repro.runs.seeds` — order-independent per-cell seed derivation.
* :mod:`repro.runs.registry` — one keyspace slice per run (config,
  streamed history, checkpoint, atomically-written result), addressed
  through its transport node.
* :mod:`repro.runs.checkpoint` — one field-driven JSON codec for every
  search checkpoint class (GA engine, island model, two-step, simulated
  annealing, NSGA-II).
* :mod:`repro.runs.suite` — the ``repro suite`` campaign runner:
  expands a workload matrix into cells, shards them across evaluation
  backends, skips completed cells on restart, and merges the results.

``suite`` is intentionally *not* imported here: it depends on
:mod:`repro.experiments.common`, which itself uses :func:`derive_seed`,
and an eager import would create a cycle. Import it explicitly via
``from repro.runs.suite import ...``.
"""

from __future__ import annotations

from .checkpoint import (
    ga_checkpoint_from_dict,
    ga_checkpoint_to_dict,
    genome_from_dict,
    genome_to_dict,
    memory_from_dict,
    memory_to_dict,
    nsga_checkpoint_from_dict,
    nsga_checkpoint_to_dict,
    sa_checkpoint_from_dict,
    sa_checkpoint_to_dict,
)
from .registry import RunHandle, RunRegistry, config_hash
from .seeds import derive_seed, stable_digest

__all__ = [
    "RunHandle",
    "RunRegistry",
    "config_hash",
    "derive_seed",
    "stable_digest",
    "ga_checkpoint_to_dict",
    "ga_checkpoint_from_dict",
    "nsga_checkpoint_to_dict",
    "nsga_checkpoint_from_dict",
    "sa_checkpoint_to_dict",
    "sa_checkpoint_from_dict",
    "genome_to_dict",
    "genome_from_dict",
    "memory_to_dict",
    "memory_from_dict",
]
