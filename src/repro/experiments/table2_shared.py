"""Table 2: hardware-mapping co-exploration with a shared buffer.

The same seven methods as Table 1, but activations and weights share one
SRAM explored from 128 KB to 3072 KB. The paper's finding: the shared
design usually reaches lower cost than the separate one because free
capacity flows to whichever side needs it.
"""

from __future__ import annotations

from ..search_space import CapacitySpace
from .common import CORE_MODELS, DEFAULT_SCALE, Scale
from .reporting import ExperimentResult
from .table1_separate import run_model


def run(
    models: tuple[str, ...] = CORE_MODELS,
    scale: Scale = DEFAULT_SCALE,
    seed: int = 100,
) -> ExperimentResult:
    """Reproduce Table 2 for the requested models."""
    result = ExperimentResult(
        experiment="Table 2: co-exploration, shared buffer (alpha=0.002, M=energy)",
        headers=("model", "method", "Size", "W", "Cost"),
    )
    space = CapacitySpace.paper_shared()
    for model_name in models:
        for row in run_model(model_name, space, scale, seed):
            result.add_row(*row)
    result.notes.append(
        "paper: shared-buffer costs are mostly lower than the separate "
        "configuration; Cocco remains the best method"
    )
    return result

