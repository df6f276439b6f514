"""The shipped rule set: per-file AST rules scoped by the zone policy."""

from __future__ import annotations

from .clock import WallClockRule
from .fs import UnsortedScanRule
from .rng import UnseededRngRule
from .writes import NonAtomicWriteRule

DEFAULT_RULES = (
    UnseededRngRule(),
    WallClockRule(),
    UnsortedScanRule(),
    NonAtomicWriteRule(),
)

__all__ = [
    "DEFAULT_RULES",
    "NonAtomicWriteRule",
    "UnseededRngRule",
    "UnsortedScanRule",
    "WallClockRule",
]
