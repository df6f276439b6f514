"""Analytical cost simulator: EMA, energy, latency, bandwidth, area."""

from .ema import (
    SubgraphProfile,
    TileOption,
    profile_subgraph,
    profile_subgraph_reference,
)
from .evaluator import Evaluator, PartitionCost, PartitionSummary, SubgraphCost
from .objective import Metric, co_opt_objective, partition_objective
from .energy import EnergyBreakdown, subgraph_energy
from .bandwidth import BandwidthReport, bandwidth_report
from .area import buffer_area_mm2
from .roofline import (
    RooflinePoint,
    RooflineReport,
    machine_balance,
    render_roofline,
    roofline_report,
)

__all__ = [
    "SubgraphProfile",
    "TileOption",
    "profile_subgraph",
    "profile_subgraph_reference",
    "Evaluator",
    "PartitionCost",
    "PartitionSummary",
    "SubgraphCost",
    "Metric",
    "co_opt_objective",
    "partition_objective",
    "EnergyBreakdown",
    "subgraph_energy",
    "BandwidthReport",
    "bandwidth_report",
    "buffer_area_mm2",
    "RooflinePoint",
    "RooflineReport",
    "machine_balance",
    "roofline_report",
    "render_roofline",
]
