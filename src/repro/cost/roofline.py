"""Roofline classification of subgraphs: compute- versus memory-bound.

The latency model already takes ``max(compute, communication)`` per
subgraph (Sec 5.1.2); this module names the two regimes. A subgraph's
*arithmetic intensity* is its MACs per byte of external traffic; the
platform's *machine balance* is peak MACs per second over DRAM bytes per
second. Intensity below the balance means the DRAM link, not the PE
array, bounds the subgraph — exactly the condition a larger buffer (or a
better partition) relieves, which is why the roofline view makes Cocco's
wins legible: good partitions move subgraphs from the memory-bound slope
onto the compute roof.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import AcceleratorConfig
from .evaluator import PartitionCost, SubgraphCost


@dataclass(frozen=True)
class RooflinePoint:
    """One subgraph in roofline coordinates."""

    members: frozenset[str]
    arithmetic_intensity: float  # MACs per EMA byte
    attained_macs_per_cycle: float
    memory_bound: bool


@dataclass(frozen=True)
class RooflineReport:
    """Roofline classification of a whole partition."""

    machine_balance: float  # MACs/cycle per byte/cycle
    peak_macs_per_cycle: float
    points: tuple[RooflinePoint, ...]

    @property
    def memory_bound_fraction(self) -> float:
        """Share of subgraphs sitting under the memory slope."""
        if not self.points:
            return 0.0
        bound = sum(1 for p in self.points if p.memory_bound)
        return bound / len(self.points)

    @property
    def attained_fraction_of_peak(self) -> float:
        """Mean attained throughput over the compute roof."""
        if not self.points:
            return 0.0
        mean = sum(p.attained_macs_per_cycle for p in self.points) / len(
            self.points
        )
        return mean / self.peak_macs_per_cycle


def machine_balance(accel: AcceleratorConfig) -> float:
    """Peak MACs per DRAM byte: the roofline ridge point."""
    bytes_per_cycle = accel.dram_bandwidth / accel.frequency_hz
    return accel.macs_per_cycle * accel.pe_utilization / bytes_per_cycle


def classify_subgraph(
    cost: SubgraphCost, accel: AcceleratorConfig
) -> RooflinePoint:
    """Place one priced subgraph on the roofline."""
    ema = max(1, cost.ema_bytes)
    intensity = cost.profile.macs / ema
    latency = max(cost.latency_cycles, 1e-12)
    attained = cost.profile.macs / latency
    return RooflinePoint(
        members=cost.profile.members,
        arithmetic_intensity=intensity,
        attained_macs_per_cycle=attained,
        memory_bound=intensity < machine_balance(accel),
    )


def roofline_report(
    cost: PartitionCost, accel: AcceleratorConfig
) -> RooflineReport:
    """Classify every feasible subgraph of an evaluated partition."""
    return RooflineReport(
        machine_balance=machine_balance(accel),
        peak_macs_per_cycle=accel.macs_per_cycle * accel.pe_utilization,
        points=tuple(
            classify_subgraph(sub, accel)
            for sub in cost.subgraphs
            if sub.feasible
        ),
    )


def render_roofline(report: RooflineReport, width: int = 50) -> str:
    """One line per subgraph: intensity, regime, attained/peak bar."""
    lines = [
        f"machine balance: {report.machine_balance:.1f} MACs/byte; "
        f"{report.memory_bound_fraction * 100:.0f}% of subgraphs memory-bound"
    ]
    for point in report.points:
        share = point.attained_macs_per_cycle / report.peak_macs_per_cycle
        bar = "#" * max(1, round(min(1.0, share) * width))
        regime = "MEM" if point.memory_bound else "CMP"
        lines.append(
            f"  [{regime}] AI={point.arithmetic_intensity:8.1f} "
            f"|{bar:<{width}}| {share * 100:5.1f}% of peak "
            f"({len(point.members)} layers)"
        )
    return "\n".join(lines)
