"""Multi-core scaling and batch processing (Sec 5.4.2-5.4.3).

:class:`~repro.cost.evaluator.Evaluator` prices ``accel.num_cores``
cores and a ``batch`` of samples on every path; this package holds the
crossbar and weight-sharding models it and the reference oracle share.
"""

from .crossbar import crossbar_cycles, crossbar_energy_pj
from .weight_sharing import WeightShardPlan, shard_weights

__all__ = [
    "crossbar_cycles",
    "crossbar_energy_pj",
    "WeightShardPlan",
    "shard_weights",
]
