"""Terminal visualization and result export.

The paper's evaluation is figures and tables; this package renders both
without a plotting stack: ASCII line charts for the Fig 12 convergence
curves, bar charts for the Fig 3/11 comparisons, scatter plots for the
Fig 13 sample-distribution drift, and CSV/JSON exporters so the numbers
can leave the terminal for a real plotting pipeline.
"""

from .campaign import CellStatus, campaign_snapshot, render_campaign
from .charts import bar_chart, grouped_bar_chart, histogram, line_chart, scatter_chart
from .export import result_to_csv, result_to_json, write_result

__all__ = [
    "line_chart",
    "scatter_chart",
    "bar_chart",
    "grouped_bar_chart",
    "histogram",
    "result_to_csv",
    "result_to_json",
    "write_result",
    "CellStatus",
    "campaign_snapshot",
    "render_campaign",
]
