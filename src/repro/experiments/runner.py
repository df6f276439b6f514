"""The experiment table: every paper table and figure by its id.

``repro experiment ID`` runs one experiment and prints the table it
reproduces; ``repro experiment all`` runs the whole evaluation section
in :data:`EXPERIMENTS` order.
"""

from __future__ import annotations

from dataclasses import replace

from . import (
    fig1_extremes,
    fig2_survey,
    stability,
    fig3_fusion,
    fig11_partition,
    fig12_convergence,
    fig13_distribution,
    fig14_alpha,
    table1_separate,
    table2_shared,
    table3_multicore,
)

EXPERIMENTS = {
    "fig1": fig1_extremes,
    "fig2": fig2_survey,
    "fig3": fig3_fusion,
    "fig11": fig11_partition,
    "table1": table1_separate,
    "table2": table2_shared,
    "fig12": fig12_convergence,
    "fig13": fig13_distribution,
    "fig14": fig14_alpha,
    "table3": table3_multicore,
    "stability": stability,
}

#: Experiments whose ``run`` accepts a scale profile.
_SCALED = ("fig1", "fig11", "table1", "table2", "fig12", "fig13",
           "fig14", "table3", "stability")


def experiment_result(name: str, scale, workers: int | None = None):
    """Run one experiment and return its :class:`ExperimentResult`.

    ``workers`` (when given) fans population evaluation out to that many
    worker processes inside every search loop the experiment runs; the
    tables are identical for any value (evaluation is pure per genome).
    When ``None``, ``scale.workers`` is respected as-is.
    """
    module = EXPERIMENTS[name]
    if workers is not None:
        scale = replace(scale, workers=workers)
    if name in _SCALED:
        return module.run(scale=scale)
    return module.run()

