"""Figure 2: the industrial-NPU survey motivating the memory trade-off.

The paper surveys sixteen commercial accelerators — nine training, seven
inference parts — plotting peak performance against on-chip memory
capacity (left panel) and tabulating the SRAM share of die area (right
panel). Three observations drive the whole work: SRAM occupies 4-79% of
NPU silicon, the performance return on capacity diminishes, and inference
designs saturate at a finite "large-enough" capacity (Hanguang runs
DDR-less from 394 MB of SRAM).

The survey data is transcribed from the paper's Figure 2; the analysis —
per-segment capacity/performance correlation and the diminishing-returns
knee — is recomputed here so the motivation figure regenerates like every
evaluation figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .reporting import ExperimentResult


@dataclass(frozen=True)
class SurveyedChip:
    """One accelerator of the paper's Figure 2 survey."""

    name: str
    segment: str  # "training" or "inference"
    performance_tflops: float
    memory_mb: float
    sram_area_percent: float


#: Transcribed from Fig 2 (performance/capacity read off the scatter; the
#: SRAM area ratios from the right-hand table).
SURVEY: tuple[SurveyedChip, ...] = (
    SurveyedChip("T4", "inference", 65.0, 10.0, 3.96),
    SurveyedChip("NVDLA", "inference", 2.0, 2.5, 13.79),
    SurveyedChip("TPUv4i", "inference", 138.0, 144.0, 14.70),
    SurveyedChip("FSD", "inference", 73.7, 64.0, 20.10),
    SurveyedChip("NNP-I", "inference", 92.0, 75.0, 27.46),
    SurveyedChip("Groq", "inference", 205.0, 220.0, 32.39),
    SurveyedChip("Hanguang", "inference", 256.0, 394.0, 36.86),
    SurveyedChip("Ascend910", "training", 256.0, 32.0, 8.60),
    SurveyedChip("TPUv2", "training", 46.0, 32.0, 10.92),
    SurveyedChip("Qualcomm-100", "training", 100.0, 144.0, 11.76),
    SurveyedChip("NNP-T", "training", 119.0, 60.0, 18.60),
    SurveyedChip("Wormhole", "training", 110.0, 120.0, 18.68),
    SurveyedChip("Grayskull", "training", 92.0, 120.0, 23.22),
    SurveyedChip("Dojo", "training", 362.0, 440.0, 28.01),
    SurveyedChip("IPUv2", "training", 250.0, 896.0, 40.65),
    SurveyedChip("IPUv1", "training", 125.0, 304.0, 78.80),
)


def marginal_performance(
    chips: tuple[SurveyedChip, ...],
) -> list[tuple[str, float]]:
    """TFLOPS gained per extra MB between capacity-sorted neighbors.

    The declining sequence is the "diminishing marginal benefit of memory
    capacity" the paper reads off the scatter.
    """
    ordered = sorted(chips, key=lambda c: c.memory_mb)
    gains: list[tuple[str, float]] = []
    for a, b in zip(ordered, ordered[1:]):
        span = b.memory_mb - a.memory_mb
        if span <= 0:
            continue
        gains.append((b.name, (b.performance_tflops - a.performance_tflops) / span))
    return gains


def run() -> ExperimentResult:
    """Regenerate the Fig 2 survey table and its observations."""
    result = ExperimentResult(
        experiment="Figure 2: industrial NPU survey (performance vs memory)",
        headers=("chip", "segment", "TFLOPS", "mem_MB", "SRAM_area_%",
                 "TFLOPS_per_MB"),
    )
    for chip in sorted(SURVEY, key=lambda c: c.memory_mb):
        result.add_row(
            chip.name,
            chip.segment,
            chip.performance_tflops,
            chip.memory_mb,
            chip.sram_area_percent,
            round(chip.performance_tflops / chip.memory_mb, 2),
        )

    areas = [c.sram_area_percent for c in SURVEY]
    result.notes.append(
        f"SRAM area share spans {min(areas):.1f}% to {max(areas):.1f}% of "
        "the die (paper: 4% to 79%)"
    )
    density = [c.performance_tflops / c.memory_mb for c in SURVEY]
    small = [d for c, d in zip(SURVEY, density) if c.memory_mb <= 64]
    large = [d for c, d in zip(SURVEY, density) if c.memory_mb > 200]
    result.notes.append(
        "diminishing returns: <=64MB chips average "
        f"{sum(small) / len(small):.2f} TFLOPS/MB, >200MB chips "
        f"{sum(large) / len(large):.2f} TFLOPS/MB"
    )
    result.extra["marginal_tflops_per_mb"] = marginal_performance(SURVEY)
    return result

