"""Genome encoding: a partition scheme plus a memory configuration.

"We encode each candidate solution (partition scheme and the
corresponding memory configuration for our problem) as a genome"
(Sec 4.3). Genomes are immutable and hashable so evaluation results can
be memoized per genome.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BufferMode, MemoryConfig
from ..partition.partition import Partition


@dataclass(frozen=True)
class Genome:
    """One candidate solution of the co-exploration problem."""

    partition: Partition
    memory: MemoryConfig

    def key(self) -> tuple:
        """Hashable identity used for dedup and fitness memoization."""
        if self.memory.mode is BufferMode.SHARED:
            mem_key: tuple = ("shared", self.memory.shared_buffer_bytes)
        else:
            mem_key = (
                "separate",
                self.memory.global_buffer_bytes,
                self.memory.weight_buffer_bytes,
            )
        return (self.partition.labels, mem_key)

    def with_partition(self, partition: Partition) -> "Genome":
        """Copy with a different partition."""
        return Genome(partition=partition, memory=self.memory)

    def with_memory(self, memory: MemoryConfig) -> "Genome":
        """Copy with a different memory configuration."""
        return Genome(partition=self.partition, memory=memory)
