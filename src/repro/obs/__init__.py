"""Structured campaign telemetry: events, spans, and their readers.

The observability subsystem is a *write-only side channel* over the run
registry. The suite's cell driver emits a cell's lifecycle and one
``progress`` event per checkpoint (beside the ``history.jsonl`` line it
writes for the same checkpoint); the evaluator adds timing spans, and
the distributed worker and coordinator add lease, budget and fleet
events. All of it goes through a
context-local :class:`~repro.obs.events.TelemetrySink`; each cell's
stream appends crash-safely to ``telemetry.jsonl`` beside its
``history.jsonl``. The search packages (:mod:`repro.ga`,
:mod:`repro.dse`) never import it. Nothing in here may influence
a search: telemetry never touches RNG state, never feeds back into
checkpoints or results, and is a strict no-op when no sink is active —
the trajectory-identity tests lock search output bit-identical with
telemetry on or off.

This package root exports only the emission layer (events + spans),
which is what those emitters import; the reader side
(:mod:`~repro.obs.aggregate`, :mod:`~repro.obs.dash`,
:mod:`~repro.obs.metrics`) is imported explicitly by the CLI so the hot
paths never pay for it.
"""

from .events import (
    TELEMETRY_FILENAME,
    TELEMETRY_VERSION,
    TelemetrySink,
    activate,
    current_sink,
    emit,
)
from .spans import span, span_stack

__all__ = [
    "TELEMETRY_FILENAME",
    "TELEMETRY_VERSION",
    "TelemetrySink",
    "activate",
    "current_sink",
    "emit",
    "span",
    "span_stack",
]
