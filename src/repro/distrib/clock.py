"""The injectable time source shared by the distributed layer.

Nothing under :mod:`repro.distrib` reads the wall clock directly
(``repro lint`` rule RL002 enforces it): every time-dependent primitive
— lease expiry, worker idle tracking, coordinator timeouts — takes a
``clock`` parameter with ``time.time`` as its default. Production code
never notices; tests swap in a :class:`FakeClock` and *decide* when
time passes instead of sleeping through it, which is what keeps the
TTL/timeout tests deterministic on loaded CI runners.
"""

from __future__ import annotations

from typing import Callable

#: A zero-argument callable returning the current time in seconds
#: (``time.time`` semantics).
Clock = Callable[[], float]


class FakeClock:
    """A logical clock: advances only when told to.

    Doubles as a sleep replacement — ``sleep`` advances the clock by the
    requested amount and returns immediately, so polling loops driven by
    an injected ``(clock, sleep)`` pair make real progress through
    logical time without wall-clock waits.
    """

    def __init__(self, now: float = 1_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)
