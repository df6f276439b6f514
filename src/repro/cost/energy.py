"""Energy model: DRAM + SRAM + compute (calibration in DESIGN.md).

The energy of a subgraph execution combines

* DRAM traffic at 12.5 pJ/bit (every EMA byte),
* SRAM traffic at a capacity-dependent per-byte cost: activations are
  written once and read once through the global buffer; weights are
  written once per DRAM load and read once per elementary operation,
* MAC energy per multiply-accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import AcceleratorConfig, MemoryConfig


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component energy of one subgraph execution, in picojoules."""

    dram_pj: float
    sram_activation_pj: float
    sram_weight_pj: float
    mac_pj: float
    crossbar_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return (
            self.dram_pj
            + self.sram_activation_pj
            + self.sram_weight_pj
            + self.mac_pj
            + self.crossbar_pj
        )


@dataclass(frozen=True)
class EnergyRates:
    """Precomputed per-byte/per-MAC energy rates for one (accel, memory).

    The capacity-dependent SRAM rates involve square roots; the pricing
    loop evaluates many tile options (and many subgraphs) under the same
    memory configuration, so the rates are hoisted out and reused. The
    resulting breakdowns are bit-identical to :func:`subgraph_energy`
    (same factors, same multiplication order).
    """

    dram_pj_per_byte: float
    act_pj_per_byte: float
    wgt_pj_per_byte: float
    mac_pj: float

    @staticmethod
    def for_memory(accel: AcceleratorConfig, memory: MemoryConfig) -> "EnergyRates":
        return EnergyRates(
            dram_pj_per_byte=accel.dram_pj_per_byte,
            act_pj_per_byte=accel.sram_pj_per_byte(memory.activation_capacity),
            wgt_pj_per_byte=accel.sram_pj_per_byte(memory.weight_capacity),
            mac_pj=accel.mac_pj,
        )

    def breakdown(
        self,
        ema_bytes: int,
        activation_traffic_bytes: int,
        weight_write_bytes: int,
        weight_read_bytes: int,
        macs: int,
        crossbar_pj: float = 0.0,
    ) -> EnergyBreakdown:
        return EnergyBreakdown(
            dram_pj=ema_bytes * self.dram_pj_per_byte,
            sram_activation_pj=activation_traffic_bytes * self.act_pj_per_byte,
            sram_weight_pj=(weight_write_bytes + weight_read_bytes)
            * self.wgt_pj_per_byte,
            mac_pj=macs * self.mac_pj,
            crossbar_pj=crossbar_pj,
        )


def subgraph_energy(
    accel: AcceleratorConfig,
    memory: MemoryConfig,
    ema_bytes: int,
    activation_traffic_bytes: int,
    weight_write_bytes: int,
    weight_read_bytes: int,
    macs: int,
) -> EnergyBreakdown:
    """Energy of one subgraph execution.

    ``activation_traffic_bytes`` should already count both the write and
    the read of each activation byte moving through the global buffer;
    ``weight_write_bytes`` is the DRAM-side fill traffic and
    ``weight_read_bytes`` the per-operation read traffic.
    """
    return EnergyRates.for_memory(accel, memory).breakdown(
        ema_bytes=ema_bytes,
        activation_traffic_bytes=activation_traffic_bytes,
        weight_write_bytes=weight_write_bytes,
        weight_read_bytes=weight_read_bytes,
        macs=macs,
    )
