"""Timing spans: nested, context-tracked regions over the event stream.

A span wraps a region of work and emits one ``span`` event when the
region exits, carrying the span's name, its parent (the enclosing
span's name), its nesting depth, its duration, and whether the region
raised. Nesting is tracked through a :mod:`contextvars` stack, so spans
compose across call boundaries without threading parameters: a span
opened inside another records it as its parent. A cell's stream holds
only the evaluator's batch-pricing spans, at depth 0, because the
search loops open none.

Durations come from ``time.perf_counter`` — the monotonic *interval*
clock, exempt from the injectable-clock rule because it can never leak
wall-clock time into results — while the event timestamp comes from the
sink's injectable clock. With no active sink the span body runs behind
a single context-variable read; no stack push, no clock calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from .events import current_sink

_STACK: ContextVar[tuple[str, ...]] = ContextVar(
    "repro_obs_span_stack", default=()
)


def span_stack() -> tuple[str, ...]:
    """The names of the open spans, outermost first (for tests/tools)."""
    return _STACK.get()


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[None]:
    """Time a region; emits one ``span`` event when telemetry is on.

    The sink is captured at entry, so a span's event always lands on
    the stream that was active when its region began. ``attrs`` are
    frozen at entry too — record exit-dependent values with a separate
    :func:`~repro.obs.events.emit` inside the region.
    """
    sink = current_sink()
    if sink is None:
        yield
        return
    parent = _STACK.get()
    token = _STACK.set(parent + (name,))
    started = time.perf_counter()
    status = "ok"
    try:
        yield
    except BaseException:
        status = "error"
        raise
    finally:
        _STACK.reset(token)
        sink.emit(
            "span",
            name=name,
            parent=parent[-1] if parent else None,
            depth=len(parent),
            dur_s=time.perf_counter() - started,
            status=status,
            **attrs,
        )
