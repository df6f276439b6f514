"""Cocco: hardware-mapping co-exploration for memory capacity-communication
optimization — a full reproduction of Tan, Zhu & Ma (ASPLOS 2024).

Public API tour:

* :mod:`repro.graphs` — computation-graph IR, transformation passes, and
  the model zoo (``get_model("resnet50")`` etc.).
* :mod:`repro.execution` — the consumption-centric subgraph execution
  scheme (``derive_tiling``).
* :mod:`repro.memory` — MAIN/SIDE region management, allocation, and the
  event-level trace simulator (``trace_subgraph``).
* :mod:`repro.mapper` — the single-layer mapper: PE-array spatial
  assignment, dataflow traffic, utilization calibration.
* :mod:`repro.cost` — the analytical evaluator (EMA / energy / latency /
  bandwidth) and the Formula 1/2 objectives.
* :mod:`repro.partition` — partition representation plus the greedy, DP,
  enumeration, and random baselines.
* :mod:`repro.ga` — Cocco's genetic algorithm and the SA baseline.
* :mod:`repro.parallel` — the cell runner (serial or a process pool)
  that ``repro suite`` shards a campaign's cells with.
* :mod:`repro.dse` — fixed-hardware, two-step, and co-optimization
  exploration schemes, plus the NSGA-II multi-objective extension.
* :mod:`repro.multicore` — crossbar and weight-sharding models of the
  multi-core / batch extension (the evaluator prices cores and batch).
* :mod:`repro.experiments` — regenerates every table and figure of the
  paper's evaluation.
* :mod:`repro.viz` — ASCII charts and CSV/JSON result export.
* :mod:`repro.cli` — the ``python -m repro`` command-line interface.
"""

from .config import AcceleratorConfig, BufferMode, MemoryConfig
from .errors import (
    AllocationError,
    CapacityError,
    ConfigError,
    GraphError,
    PartitionError,
    ReproError,
    SearchError,
    ShapeError,
    TilingError,
)
from .search_space import CapacitySpace
from .graphs import ComputationGraph, GraphBuilder, LayerSpec, OpKind, TensorShape
from .graphs.zoo import available_models, get_model
from .execution import derive_tiling
from .cost import Evaluator, Metric, co_opt_objective, partition_objective
from .partition import (
    Partition,
    dp_partition,
    enumerate_partition,
    greedy_partition,
    random_partition,
)
from .ga import (
    GAConfig,
    GeneticEngine,
    Genome,
    OptimizationProblem,
    SAConfig,
    simulated_annealing,
)
from .dse import (
    DSEResult,
    NSGAConfig,
    NSGAResult,
    cocco_co_optimize,
    cocco_partition_only,
    grid_search_ga,
    nsga2_co_optimize,
    optimize_fixed,
    random_search_ga,
    sa_co_optimize,
)
from .mapper import GraphMapping, calibrated_accelerator, map_graph, map_layer
from .memory import SubgraphTrace, trace_subgraph, validate_trace
from .runs import RunRegistry, derive_seed

__version__ = "1.0.0"

__all__ = [
    "AcceleratorConfig",
    "BufferMode",
    "MemoryConfig",
    "CapacitySpace",
    "ReproError",
    "GraphError",
    "ShapeError",
    "PartitionError",
    "TilingError",
    "CapacityError",
    "AllocationError",
    "ConfigError",
    "SearchError",
    "ComputationGraph",
    "GraphBuilder",
    "LayerSpec",
    "OpKind",
    "TensorShape",
    "available_models",
    "get_model",
    "derive_tiling",
    "Evaluator",
    "Metric",
    "partition_objective",
    "co_opt_objective",
    "Partition",
    "greedy_partition",
    "dp_partition",
    "enumerate_partition",
    "random_partition",
    "Genome",
    "GAConfig",
    "GeneticEngine",
    "OptimizationProblem",
    "SAConfig",
    "simulated_annealing",
    "DSEResult",
    "optimize_fixed",
    "random_search_ga",
    "grid_search_ga",
    "cocco_co_optimize",
    "cocco_partition_only",
    "sa_co_optimize",
    "NSGAConfig",
    "NSGAResult",
    "nsga2_co_optimize",
    "GraphMapping",
    "map_layer",
    "map_graph",
    "calibrated_accelerator",
    "SubgraphTrace",
    "trace_subgraph",
    "validate_trace",
    "RunRegistry",
    "derive_seed",
    "__version__",
]
