"""Shared experiment configuration.

The paper's searches draw up to 400,000 samples; a laptop-scale
reproduction keeps the same algorithms but bounds the budgets through a
:class:`Scale` profile. ``QUICK_SCALE`` backs the test suite and the
pytest benchmarks, ``DEFAULT_SCALE`` gives publication-shaped results in
minutes, ``FULL_SCALE`` approaches the paper's budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import AcceleratorConfig, MemoryConfig
from ..ga.annealing import SAConfig
from ..ga.engine import GAConfig
from ..ga.islands import IslandConfig
from ..runs.seeds import derive_seed
from ..units import kb

__all__ = [
    "CORE_MODELS",
    "FIG11_MODELS",
    "ENUMERABLE_MODELS",
    "Scale",
    "TINY_SCALE",
    "QUICK_SCALE",
    "DEFAULT_SCALE",
    "FULL_SCALE",
    "SCALES",
    "derive_seed",
    "paper_memory",
    "paper_accelerator",
]


#: The four models of Fig 3 / Tables 1-3 / Figs 13-14.
CORE_MODELS = ("resnet50", "googlenet", "randwire_a", "nasnet")

#: The eight models of Fig 11, in the paper's order.
FIG11_MODELS = (
    "vgg16",
    "resnet50",
    "resnet152",
    "googlenet",
    "transformer",
    "gpt",
    "randwire_a",
    "randwire_b",
)

#: Models where the exact enumeration is expected to complete (Fig 11).
ENUMERABLE_MODELS = ("vgg16", "resnet50", "resnet152", "googlenet")


@dataclass(frozen=True)
class Scale:
    """Search-budget profile for the experiment harness."""

    name: str
    ga_population: int
    ga_generations: int
    sa_steps: int
    rs_candidates: int
    gs_stride: int
    gs_max_candidates: int
    enum_max_states: int
    enum_max_subgraph: int
    #: Evaluation worker processes for population-based searches (1 =
    #: serial). Results are identical for any value; only wall-clock
    #: changes. Override per run with ``replace(scale, workers=N)`` or
    #: the ``--workers`` CLI flag.
    workers: int = 1
    #: Island-model shape: sub-population count, migration epochs, and
    #: generations per island per epoch. The total sample budget
    #: (``islands * epochs * epoch_generations * ga_population``) stays
    #: comparable to the co-opt GA's so suite cells are comparable.
    island_count: int = 2
    island_epochs: int = 2
    island_epoch_generations: int = 2

    def ga_config(self, seed: int = 0, **overrides) -> GAConfig:
        """A :class:`GAConfig` at this scale."""
        config = GAConfig(
            population_size=self.ga_population,
            generations=self.ga_generations,
            seed=seed,
            workers=self.workers,
        )
        return replace(config, **overrides) if overrides else config

    def sa_config(self, seed: int = 0, **overrides) -> SAConfig:
        """An :class:`SAConfig` at this scale."""
        config = SAConfig(steps=self.sa_steps, seed=seed)
        return replace(config, **overrides) if overrides else config

    def co_opt_ga_config(self, seed: int = 0, **overrides) -> GAConfig:
        """GA budget for the co-optimizing methods.

        The two-step schemes spend ``rs_candidates`` independent GA runs;
        the co-optimizers get the same *total* sample budget in one run
        (the paper draws the same 50K samples for every method).
        """
        config = GAConfig(
            population_size=self.ga_population,
            generations=self.ga_generations * self.rs_candidates,
            seed=seed,
            workers=self.workers,
        )
        return replace(config, **overrides) if overrides else config

    def islands_config(self, seed: int = 0) -> IslandConfig:
        """An :class:`IslandConfig` at this scale."""
        base = GAConfig(
            population_size=self.ga_population,
            generations=self.island_epoch_generations,
            seed=seed,
            workers=self.workers,
        )
        return IslandConfig(
            base=base,
            num_islands=self.island_count,
            epochs=self.island_epochs,
            epoch_generations=self.island_epoch_generations,
            seed=seed,
        )

    def co_opt_sa_config(self, seed: int = 0, **overrides) -> SAConfig:
        """SA budget matched to the co-opt GA's total samples."""
        config = SAConfig(
            steps=self.ga_population * self.ga_generations * self.rs_candidates,
            seed=seed,
        )
        return replace(config, **overrides) if overrides else config


#: Smallest meaningful budget: CI smoke jobs and the suite tests use it
#: to exercise whole campaigns in seconds. Not a results-quality profile.
TINY_SCALE = Scale(
    name="tiny",
    ga_population=8,
    ga_generations=3,
    sa_steps=60,
    rs_candidates=2,
    gs_stride=16,
    gs_max_candidates=2,
    enum_max_states=5_000,
    enum_max_subgraph=8,
)

QUICK_SCALE = Scale(
    name="quick",
    ga_population=20,
    ga_generations=8,
    sa_steps=400,
    rs_candidates=3,
    gs_stride=12,
    gs_max_candidates=3,
    enum_max_states=20_000,
    enum_max_subgraph=16,
    island_count=2,
    island_epochs=2,
    island_epoch_generations=4,
)

DEFAULT_SCALE = Scale(
    name="default",
    ga_population=48,
    ga_generations=25,
    sa_steps=3_000,
    rs_candidates=6,
    gs_stride=8,
    gs_max_candidates=6,
    enum_max_states=60_000,
    enum_max_subgraph=32,
    island_count=4,
    island_epochs=5,
    island_epoch_generations=5,
)

FULL_SCALE = Scale(
    name="full",
    ga_population=120,
    ga_generations=80,
    sa_steps=20_000,
    rs_candidates=10,
    gs_stride=4,
    gs_max_candidates=10,
    enum_max_states=200_000,
    enum_max_subgraph=64,
    island_count=4,
    island_epochs=8,
    island_epoch_generations=10,
)

SCALES = {s.name: s for s in (TINY_SCALE, QUICK_SCALE, DEFAULT_SCALE, FULL_SCALE)}


def paper_memory() -> MemoryConfig:
    """The fixed platform of Fig 3 / Fig 11: 1 MB global + 1.125 MB weight."""
    return MemoryConfig.separate(kb(1024), kb(1152))


def paper_accelerator(
    memory: MemoryConfig | None = None, num_cores: int = 1
) -> AcceleratorConfig:
    """The 2 TOPS SIMBA-like core of Sec 5.1.2."""
    return AcceleratorConfig(
        memory=memory or paper_memory(), num_cores=num_cores
    )
