"""Latency model (Sec 5.1.2).

"The latency per subgraph depends on the maximum of the calculation and
external communication cycles": compute time is the MAC count over the
effective array throughput, communication time is the EMA byte count over
the per-core DRAM bandwidth, and the slower of the two bounds the
subgraph.
"""

from __future__ import annotations

from ..config import AcceleratorConfig


def effective_macs_per_cycle(accel: AcceleratorConfig) -> float:
    """Utilization-derated MAC throughput of the PE array."""
    return accel.macs_per_cycle * accel.pe_utilization


def dram_bytes_per_cycle(accel: AcceleratorConfig) -> float:
    """DRAM link bytes moved per core cycle."""
    return accel.dram_bandwidth / accel.frequency_hz


def compute_cycles(accel: AcceleratorConfig, macs: int) -> float:
    """Cycles the PE array needs for ``macs`` multiply-accumulates."""
    return macs / effective_macs_per_cycle(accel)


def dram_cycles(accel: AcceleratorConfig, ema_bytes: int) -> float:
    """Cycles to move ``ema_bytes`` over the core's DRAM link."""
    return ema_bytes / dram_bytes_per_cycle(accel)
