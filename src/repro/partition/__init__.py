"""Graph partitions: representation, validity, baselines (Sec 4.1-4.2)."""

from .partition import Partition
from .subgraph import weakly_connected_components
from .validity import check_partition, normalize_groups, split_infeasible
from .random_init import random_partition
from .greedy import greedy_partition
from .dp import dp_partition
from .enumeration import enumerate_partition

__all__ = [
    "Partition",
    "weakly_connected_components",
    "check_partition",
    "normalize_groups",
    "split_infeasible",
    "random_partition",
    "greedy_partition",
    "dp_partition",
    "enumerate_partition",
]
