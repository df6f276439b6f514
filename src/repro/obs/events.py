"""Schema-versioned telemetry events on an append-only JSONL stream.

One :class:`TelemetrySink` owns one stream: a registry node's
``telemetry.jsonl`` (a cell's, or the registry root's fleet stream).
Every event is a single JSON object line carrying the schema version, a
wall-clock timestamp from the sink's *injectable* clock, and an event
``kind``; each line is one ``append_line`` through the node's
transport, so a SIGKILL leaves at most one torn final line — which
every reader (:func:`repro.runs.registry.iter_jsonl_text`, and
:func:`repro.viz.campaign.tail_jsonl_node` through it) skips by design.

Emission is routed through a :mod:`contextvars` variable rather than
threaded parameters: :func:`activate` installs a sink for a scope, and
:func:`emit` inside that scope (any call depth down) writes to it.
When no sink is active — every non-campaign entry point — :func:`emit`
is a single context-variable read and a ``None`` test, so instrumented
hot paths pay effectively nothing.

Determinism contract: events are observational only. They carry copies
of values the search already computed; nothing reads them back during
execution, and the sink never touches RNG or durable search state.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

#: A zero-argument callable returning seconds (``time.time`` semantics).
#: Mirrors :data:`repro.distrib.clock.Clock`; redefined here so the
#: emission layer stays import-free of the packages it instruments.
Clock = Callable[[], float]

#: Bumped when the event wire format changes shape; every line records
#: the version it was written under so readers can migrate old streams.
TELEMETRY_VERSION = 1

#: Per-cell stream name, beside ``history.jsonl`` in the run directory.
TELEMETRY_FILENAME = "telemetry.jsonl"

_ACTIVE: ContextVar["TelemetrySink | None"] = ContextVar(
    "repro_obs_active_sink", default=None
)


def _jsonable(value: Any) -> Any:
    """Clamp non-finite floats to ``None`` (matching the history stream:
    an unpriced best cost streams as ``null``, never as bare
    ``Infinity``, which is not JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class TelemetrySink:
    """Append-only writer of telemetry events for one stream.

    Writes through a :class:`repro.runs.transport.RunNode` — every event
    is one ``append_line`` on the node's transport, on a local directory
    and an object store alike, so a wrapper around the transport sees
    every telemetry write. Appending means re-running an interrupted
    cell extends its stream, with each attempt delimited by its own
    ``cell.start`` event.
    """

    def __init__(
        self,
        node: Any,
        clock: Clock = time.time,
        filename: str = TELEMETRY_FILENAME,
    ):
        self.node = node
        self.clock = clock
        self.filename = filename
        self.events_written = 0

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event line; never raises into the search.

        A full disk or a permission flip mid-campaign must degrade to
        lost telemetry, not a failed (and budget-charged) cell.
        """
        record: dict[str, Any] = {
            "v": TELEMETRY_VERSION,
            "ts": self.clock(),
            "kind": kind,
        }
        record.update(fields)
        try:
            line = json.dumps(record, allow_nan=False)
        except (TypeError, ValueError):
            line = json.dumps(_jsonable(record))
        try:
            self.node.append_line(self.filename, line)
            self.events_written += 1
        except OSError:
            pass


def current_sink() -> TelemetrySink | None:
    """The scope's active sink, or ``None`` when telemetry is off."""
    return _ACTIVE.get()


def emit(kind: str, **fields: Any) -> None:
    """Emit one event to the active sink; a no-op when telemetry is off."""
    sink = _ACTIVE.get()
    if sink is not None:
        sink.emit(kind, **fields)


@contextmanager
def activate(sink: TelemetrySink | None) -> Iterator[TelemetrySink | None]:
    """Install ``sink`` as the scope's telemetry stream.

    ``activate(None)`` is a valid disabled scope — callers keep one code
    path whether telemetry is on or off. Scopes nest; the previous sink
    is restored on exit (exception or not).
    """
    token = _ACTIVE.set(sink)
    try:
        yield sink
    finally:
        _ACTIVE.reset(token)
