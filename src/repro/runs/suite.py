"""The ``repro suite`` campaign runner: durable, sharded, resumable.

The paper's result matrices (Tables 1–3, Figs 11–14) are campaigns of
independent exploration runs over {network x buffer mode x metric x
bytes-per-element x scheme x alpha}. This module turns such a matrix
into *cells*, each a durable unit in a :class:`~repro.runs.registry.
RunRegistry`:

* every cell's seed derives from (campaign seed, stable cell key) — see
  :mod:`repro.runs.seeds` — so matrix edits never shift another cell's
  random stream;
* cells shard across the existing evaluation backends
  (:func:`~repro.parallel.backend.resolve_backend`); each cell
  warm-starts from the per-graph evaluator summaries earlier cells
  saved to the registry's ``warm/`` files, and saves its own there —
  the only way summaries leave a cell, and a pure reuse of
  already-computed values;
* a completed cell writes ``result.json`` atomically, so a restarted
  campaign re-runs only incomplete cells, and the merged report of a
  killed-and-resumed campaign is bit-identical to an uninterrupted one;
  a deterministic in-cell failure writes ``error.json``, which every
  runner treats as terminal (delete it to retry the cell);
* every search scheme streams step-keyed history into the registry and
  persists mid-run checkpoints — GA/NSGA per generation, SA per step
  chunk, the island model per island generation (a composite of every
  island's engine state), the two-step schemes per inner-GA generation
  (with a candidate cursor) — so an interrupted cell of *any* kind
  resumes mid-search instead of restarting;
* every campaign, budgeted or not, runs through one loop: each round
  probes durable progress once
  (:func:`~repro.distrib.budget.campaign_progress`) and maps the cells
  the budget scheduler calls claimable — with no budget, every cell
  that is neither complete nor failed;
* campaigns have one level of parallelism: cells fan out across
  processes, and each cell runs its search on the serial backend;
* a worker killed mid-cell (OOM, segfault) breaks its pool: the runner
  rebuilds the backend and retries the cells that have no durable
  result — a killed cell is never recorded as complete — until
  ``workers`` rounds in a row have broken with no cell settling.

The merged campaign report is an ordinary
:class:`~repro.experiments.reporting.ExperimentResult`, consumable by
:mod:`repro.viz.export`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from concurrent.futures.process import BrokenProcessPool

from ..config import AcceleratorConfig
from ..cost.evaluator import Evaluator
from ..cost.objective import Metric
from ..dse import two_step as two_step_mod
from ..dse.nsga import NSGAConfig, nsga2_co_optimize
from ..dse.two_step import grid_search_ga, random_search_ga
from ..errors import ConfigError, ReproError
from ..experiments.common import SCALES, Scale, paper_accelerator
from ..experiments.reporting import ExperimentResult
from ..ga import islands as islands_mod
from ..ga.annealing import simulated_annealing
from ..ga.engine import GeneticEngine
from ..ga.islands import island_search
from ..ga.problem import OptimizationProblem
from ..graphs.zoo import get_model
from ..obs import TelemetrySink, activate, emit
from ..parallel.backend import EvaluationBackend, resolve_backend
from ..search_space import CapacitySpace
from ..units import to_kb, to_mb
from .checkpoint import (
    ga_checkpoint_from_dict,
    ga_checkpoint_to_dict,
    islands_checkpoint_from_dict,
    islands_checkpoint_to_dict,
    nsga_checkpoint_from_dict,
    nsga_checkpoint_to_dict,
    sa_checkpoint_from_dict,
    sa_checkpoint_to_dict,
    two_step_checkpoint_from_dict,
    two_step_checkpoint_to_dict,
)
from .registry import RunRegistry
from .seeds import derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from ..distrib.budget import CellProgress

MODES = ("separate", "shared")
METRICS = ("ema", "energy")

#: Matrix-cell kill switch for the worker-death tests: when the
#: environment variable names a substring of a cell id, the *first*
#: attempt at that cell hard-exits its worker process (subsequent
#: attempts run normally, as after a real transient OOM kill).
FAULT_ENV = "REPRO_SUITE_FAULT_CELL"


# ---------------------------------------------------------------------------
# Matrix expansion
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SuiteCell:
    """One (network, mode, metric, bytes/elem, scheme, alpha) cell."""

    network: str
    mode: str
    metric: str
    bytes_per_element: int
    scheme: str
    alpha: float
    scale: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown buffer mode {self.mode!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.bytes_per_element < 1:
            raise ConfigError("bytes_per_element must be positive")
        if self.scale not in SCALES:
            raise ConfigError(f"unknown scale {self.scale!r}")

    @property
    def key(self) -> tuple:
        """The stable identity the seed and registry key derive from."""
        return (
            self.network,
            self.mode,
            self.metric,
            self.bytes_per_element,
            self.scheme,
            self.alpha,
            self.scale,
        )

    @property
    def cell_id(self) -> str:
        """Human-readable id (used in logs and fault injection)."""
        return (
            f"{self.network}/{self.mode}/{self.metric}"
            f"/b{self.bytes_per_element}/{self.scheme}/a{self.alpha}"
        )

    def config_dict(self) -> dict[str, Any]:
        """The JSON-able configuration the registry hashes and stores."""
        return {
            "network": self.network,
            "mode": self.mode,
            "metric": self.metric,
            "bytes_per_element": self.bytes_per_element,
            "scheme": self.scheme,
            "alpha": self.alpha,
            "scale": self.scale,
        }

    def seed(self, campaign_seed: int) -> int:
        """This cell's derived seed — independent of every other cell."""
        return derive_seed(campaign_seed, *self.key)


@dataclass(frozen=True)
class SuiteMatrix:
    """A campaign: the cross product of the workload dimensions."""

    networks: tuple[str, ...]
    modes: tuple[str, ...] = ("separate",)
    metrics: tuple[str, ...] = ("energy",)
    bytes_per_element: tuple[int, ...] = (1,)
    schemes: tuple[str, ...] = ("cocco",)
    alphas: tuple[float, ...] = (0.002,)
    scale: str = "quick"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.networks:
            raise ConfigError("suite matrix needs at least one network")

    def cells(self) -> list[SuiteCell]:
        """Expand the matrix, network-major.

        Network-major order keeps same-graph cells adjacent, so backend
        chunking tends to hand them to the same worker, whose registry
        already holds that graph's warm evaluator summaries.
        """
        return [
            SuiteCell(
                network=network,
                mode=mode,
                metric=metric,
                bytes_per_element=bpe,
                scheme=scheme,
                alpha=alpha,
                scale=self.scale,
            )
            for network in self.networks
            for bpe in self.bytes_per_element
            for mode in self.modes
            for metric in self.metrics
            for scheme in self.schemes
            for alpha in self.alphas
        ]


def matrix_to_dict(matrix: SuiteMatrix) -> dict:
    """JSON-able form of a matrix; :func:`matrix_from_dict` inverts it."""
    return {
        "networks": list(matrix.networks),
        "modes": list(matrix.modes),
        "metrics": list(matrix.metrics),
        "bytes_per_element": list(matrix.bytes_per_element),
        "schemes": list(matrix.schemes),
        "alphas": list(matrix.alphas),
        "scale": matrix.scale,
        "seed": matrix.seed,
    }


def matrix_from_dict(data: dict) -> SuiteMatrix:
    """Decode a campaign manifest's or a spawned worker's matrix dict."""
    return SuiteMatrix(
        networks=tuple(data["networks"]),
        modes=tuple(data["modes"]),
        metrics=tuple(data["metrics"]),
        bytes_per_element=tuple(int(v) for v in data["bytes_per_element"]),
        schemes=tuple(data["schemes"]),
        alphas=tuple(float(v) for v in data["alphas"]),
        scale=data["scale"],
        seed=int(data["seed"]),
    )


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------
def _stream_cost(value: float) -> float | None:
    """History-stream-safe cost value.

    Before the first feasible genome lands, best costs are
    ``float("inf")``, which ``json.dumps`` renders as the bare token
    ``Infinity`` — not RFC-8259 JSON, so strict consumers (jq,
    ``JSON.parse``) would choke on ``history.jsonl``. The stream (the
    operator/CI-facing artifact) carries ``null`` instead; checkpoints
    keep the exact floats (they are a Python-internal round-trip
    format where bit fidelity matters).
    """
    return value if math.isfinite(value) else None


def _metric(name: str) -> Metric:
    return Metric.EMA if name == "ema" else Metric.ENERGY


def _space(mode: str) -> CapacitySpace:
    if mode == "shared":
        return CapacitySpace.paper_shared()
    return CapacitySpace.paper_separate()


def cell_accelerator(cell: SuiteCell) -> AcceleratorConfig:
    """The cell's platform: the paper core at the cell's element width."""
    return replace(
        paper_accelerator(), bytes_per_element=cell.bytes_per_element
    )


class _Scheme:
    """One search scheme as :func:`_drive` runs it in a suite cell.

    An entry builds its ``config`` (``configure``), describes its
    checkpoints — the history line each streams (``tick_key`` first,
    then position fields) and whether one is the search's final state —
    and wraps its codec pair (``encode``/``decode``), its entry point
    (``search``) and its ``outcome``: ``(best_cost, memory,
    partition_cost)`` of a finished search. :func:`_drive` owns the rest.

    Codec functions and entry points are called by their module-level
    names inside the methods, never stored on the entry, so wrappers
    installed on those globals (perfbench's tracer) see every call.
    """

    #: History key of a checkpoint's monotonic position.
    tick_key = "generation"
    #: ``False`` for a cell-atomic scheme: it ignores ``sample_cap``
    #: and always runs whole; the budget scheduler charges its exact
    #: evaluation count.
    capped = True
    #: Persist the checkpoint of every N-th tick only.
    checkpoint_every = 1

    def __init__(
        self, cell: SuiteCell, seed: int, evaluator: Evaluator, scale: Scale,
        sample_cap: int | None,
    ):
        self.cell = cell
        self.seed = seed
        self.evaluator = evaluator
        self.scale = scale
        self.metric = _metric(cell.metric)
        self.space = _space(cell.mode)
        self.sample_cap = sample_cap if self.capped else None
        self.config = self.configure()

    def tick(self, checkpoint) -> int:
        return checkpoint.generation

    def position(self, checkpoint) -> dict[str, Any]:
        return {}

    def entry(self, checkpoint) -> dict[str, Any]:
        """The checkpoint's ``history.jsonl`` line."""
        return {
            self.tick_key: self.tick(checkpoint),
            **self.position(checkpoint),
            "evaluations": checkpoint.evaluations,
            "best_cost": _stream_cost(checkpoint.best_cost),
        }

    def finished(self, checkpoint) -> bool:
        return checkpoint.generation >= self.config.generations


class _CoOpt(_Scheme):
    """A scheme searching the cell's Formula 2 problem directly."""

    def __init__(self, *args):
        super().__init__(*args)
        self.problem = OptimizationProblem(
            evaluator=self.evaluator, metric=self.metric,
            alpha=self.cell.alpha, space=self.space,
        )

    def outcome(self, result):
        _, partition_cost = self.problem.evaluate(result.best_genome)
        return result.best_cost, result.best_genome.memory, partition_cost


class _Cocco(_CoOpt):
    """Co-opt GA, checkpointed every generation.

    Equivalent to ``cocco_co_optimize(..., refine=False)``, but drives
    the engine directly so a cell resumes from its checkpoint; the cap
    is the engine's ``max_samples``.
    """

    def configure(self):
        if self.sample_cap is None:
            return self.scale.co_opt_ga_config(seed=self.seed)
        return self.scale.co_opt_ga_config(
            seed=self.seed, max_samples=self.sample_cap
        )

    def encode(self, checkpoint):
        return ga_checkpoint_to_dict(checkpoint)

    def decode(self, state):
        return ga_checkpoint_from_dict(state, self.evaluator.graph)

    def search(self, hook, resume_from):
        engine = GeneticEngine(self.problem, self.config)
        if resume_from is None:
            return engine.run(on_generation=hook)
        return engine.resume(resume_from, on_generation=hook)


class _Annealing(_CoOpt):
    """SA, checkpointed every ``checkpoint_interval`` steps + final."""

    tick_key = "step"

    def configure(self):
        return self.scale.co_opt_sa_config(seed=self.seed)

    def tick(self, checkpoint):
        return checkpoint.step

    def finished(self, checkpoint):
        return checkpoint.step >= self.config.steps

    def encode(self, checkpoint):
        return sa_checkpoint_to_dict(checkpoint)

    def decode(self, state):
        return sa_checkpoint_from_dict(state, self.evaluator.graph)

    def search(self, hook, resume_from):
        return simulated_annealing(
            self.problem, self.config, on_step=hook,
            resume_from=resume_from, max_evaluations=self.sample_cap,
        )


class _Islands(_CoOpt):
    """Island-model GA, checkpointed every island generation.

    The composite checkpoint holds every island's engine plus the
    migration RNG and the epoch/island cursor; the cap bounds the
    *global* evaluation count across islands.
    """

    tick_key = "tick"

    def configure(self):
        return self.scale.islands_config(seed=self.seed)

    def tick(self, checkpoint):
        return islands_mod.checkpoint_tick(checkpoint, self.config)

    def position(self, checkpoint):
        return {
            "epoch": checkpoint.epoch,
            "island": checkpoint.island,
            "generation": checkpoint.generation,
        }

    def finished(self, checkpoint):
        return islands_mod.checkpoint_finished(checkpoint, self.config)

    def encode(self, checkpoint):
        return islands_checkpoint_to_dict(checkpoint)

    def decode(self, state):
        return islands_checkpoint_from_dict(state, self.evaluator.graph)

    def search(self, hook, resume_from):
        return island_search(
            self.problem, self.config, on_generation=hook,
            resume_from=resume_from, max_samples=self.sample_cap,
        )


class _NSGA(_Scheme):
    """NSGA-II frontier run, reported at the cell's alpha.

    Cell-atomic: archive-deduplicated evaluation counting cannot stop
    exactly mid-generation. Its checkpoints carry the whole evaluation
    archive, which grows every generation, so persisting one per
    generation would rewrite O(generations x archive) JSON; every fifth
    is kept instead, and a resume recomputes at most four generations.
    """

    capped = False
    checkpoint_every = 5

    def configure(self):
        return NSGAConfig(
            population_size=max(4, self.scale.ga_population),
            generations=self.scale.ga_generations,
            seed=self.seed,
        )

    def entry(self, checkpoint):
        return {
            "generation": checkpoint.generation,
            "evaluations": checkpoint.evaluations,
        }

    def encode(self, checkpoint):
        return nsga_checkpoint_to_dict(checkpoint)

    def decode(self, state):
        return nsga_checkpoint_from_dict(state, self.evaluator.graph)

    def search(self, hook, resume_from):
        return nsga2_co_optimize(
            self.evaluator, self.space, metric=self.metric,
            config=self.config, on_generation=hook, resume_from=resume_from,
        )

    def outcome(self, result):
        point = result.select_by_alpha(self.cell.alpha)
        genome = point.genome
        partition_cost = self.evaluator.evaluate(
            genome.partition.subgraph_sets, genome.memory
        )
        return point.formula2(self.cell.alpha), genome.memory, partition_cost


class _TwoStep(_Scheme):
    """RS+GA / GS+GA, checkpointed every inner-GA generation.

    The checkpoint holds the candidate cursor, that candidate's engine
    state and the folded telemetry, so a cell resumes mid-candidate; the
    cap bounds the cumulative evaluation count across candidates.
    """

    tick_key = "tick"

    def configure(self):
        return self.scale.ga_config(seed=self.seed)

    def tick(self, checkpoint):
        return two_step_mod.checkpoint_tick(checkpoint, self.config)

    def position(self, checkpoint):
        return {
            "candidate": checkpoint.candidate,
            "generation": checkpoint.generation,
        }

    def finished(self, checkpoint):
        return two_step_mod.checkpoint_finished(checkpoint, self.config)

    def encode(self, checkpoint):
        return two_step_checkpoint_to_dict(checkpoint, kind=self.cell.scheme)

    def decode(self, state):
        return two_step_checkpoint_from_dict(
            state, self.evaluator.graph, kind=self.cell.scheme
        )

    def outcome(self, result):
        return result.best_cost, result.memory, result.partition_cost


class _RandomSearch(_TwoStep):
    def search(self, hook, resume_from):
        return random_search_ga(
            self.evaluator, self.space, metric=self.metric,
            alpha=self.cell.alpha, num_candidates=self.scale.rs_candidates,
            ga_config=self.config, seed=self.seed,
            on_checkpoint=hook, resume_from=resume_from,
            max_evaluations=self.sample_cap,
        )


class _GridSearch(_TwoStep):
    def search(self, hook, resume_from):
        return grid_search_ga(
            self.evaluator, self.space, metric=self.metric,
            alpha=self.cell.alpha, stride=self.scale.gs_stride,
            max_candidates=self.scale.gs_max_candidates,
            ga_config=self.config,
            on_checkpoint=hook, resume_from=resume_from,
            max_evaluations=self.sample_cap,
        )


#: The search schemes a cell can run, in ``--schemes`` help order. A new
#: scheme is one entry here; a new checkpoint class also takes its kind
#: and two named wrappers in :mod:`repro.runs.checkpoint`.
_SCHEME_TABLE: dict[str, type[_Scheme]] = {
    "cocco": _Cocco,
    "rs": _RandomSearch,
    "gs": _GridSearch,
    "sa": _Annealing,
    "nsga": _NSGA,
    "islands": _Islands,
}
SCHEMES = tuple(_SCHEME_TABLE)
#: Schemes that stop exactly at a sample cap and resume from their
#: checkpoint; the others run cell-atomically.
CAPPED_SCHEMES = frozenset(
    name for name, scheme in _SCHEME_TABLE.items() if scheme.capped
)


def _drive(scheme: _Scheme, run) -> tuple[tuple | None, int]:
    """Run one scheme durably; returns ``(outcome, evaluations)``.

    Every checkpoint the search yields streams one history line and one
    ``progress`` event, and every ``checkpoint_every``-th is persisted.
    A stored checkpoint is resumed bit-identically, after dropping any
    history line written past it. ``outcome`` is ``None`` when the
    search stopped at its sample cap unfinished: its checkpoint stays in
    place, and a later call with a higher cap resumes the same
    trajectory.
    """
    cap = scheme.sample_cap
    last = None

    def hook(checkpoint) -> None:
        nonlocal last
        last = checkpoint
        entry = scheme.entry(checkpoint)
        run.log_history(entry)
        emit("progress", scheme=scheme.cell.scheme, **entry)
        if entry[scheme.tick_key] % scheme.checkpoint_every == 0:
            run.save_checkpoint(scheme.encode(checkpoint))

    state = run.load_checkpoint()
    resume_from = None
    if state is not None:
        resume_from = last = scheme.decode(state)
        if (
            cap is not None
            and resume_from.evaluations >= cap
            and not scheme.finished(resume_from)
        ):
            # Already at (or past) this cap: nothing to do until the
            # budget scheduler grants more.
            return None, resume_from.evaluations
        run.truncate_history(scheme.tick(resume_from), key=scheme.tick_key)
    result = scheme.search(hook, resume_from)
    if cap is not None and (last is None or not scheme.finished(last)):
        return None, result.num_evaluations
    return scheme.outcome(result), result.num_evaluations


def _maybe_fault(
    cell: SuiteCell, campaign_seed: int, registry: RunRegistry
) -> None:
    """Test instrumentation: die like an OOM-killed worker, once.

    Lives in :func:`run_cell` (not the sharded task) so both the local
    pool path and the distributed ``repro worker`` path can be killed
    mid-cell by the fault-injection tests and smoke scripts.
    """
    target = os.environ.get(FAULT_ENV)
    if not target or target not in cell.cell_id:
        return
    node = registry.run_node(cell.config_dict(), cell.seed(campaign_seed))
    # Crash-simulation marker: single-winner create makes "once" hold
    # across transports, and the writer os._exit()s right after.
    node.ensure()
    if node.create_if_absent("fault-attempted", "injected worker kill\n") is None:
        return
    os._exit(23)


def run_cell(
    cell: SuiteCell,
    campaign_seed: int,
    registry: RunRegistry,
    evaluator: Evaluator | None = None,
    sample_cap: int | None = None,
    telemetry: bool = True,
) -> dict[str, Any]:
    """Execute one cell durably; returns its result row.

    Already-completed cells return their stored result without any
    recomputation. The result row is written to ``result.json``
    atomically *after* all search work, so a kill at any point leaves
    the cell incomplete (and resumable), never half-recorded.

    ``sample_cap`` (from the campaign budget scheduler) bounds the
    cell's cumulative evaluation count for :data:`CAPPED_SCHEMES`; a
    cell stopped at its cap returns a ``status="exhausted"`` row
    *without* writing ``result.json`` — it stays resumable and continues
    when a later call raises the cap. The other schemes (``nsga``) run
    whole; the scheduler charges their exact evaluation count. The
    search runs on the serial backend: a campaign's parallelism is its
    cells, spread across processes by the runners, and the cell's
    telemetry sink stays in the one process that owns its stream.

    ``telemetry`` (default on) streams structured events — cell
    lifecycle, one ``progress`` event per history line, evaluator
    pricing spans and stats — to ``telemetry.jsonl`` beside the cell's
    history. Purely a write-only side channel: results, checkpoints,
    and RNG trajectories are bit-identical with it on or off (locked by
    the trajectory-identity tests).
    """
    config = cell.config_dict()
    seed = cell.seed(campaign_seed)
    if registry.is_complete(config, seed):
        return registry.load(config, seed).load_result()
    if sample_cap is not None and sample_cap < 1:
        raise ConfigError("sample_cap must be positive when set")
    _maybe_fault(cell, campaign_seed, registry)
    run = registry.open_run(config, seed)
    with activate(TelemetrySink(run.node) if telemetry else None):
        emit(
            "cell.start",
            cell=cell.cell_id,
            scheme=cell.scheme,
            seed=seed,
            sample_cap=sample_cap,
            resumed=run.has_checkpoint,
        )
        try:
            row = _execute_cell(
                cell, config, seed, registry, run,
                evaluator=evaluator, sample_cap=sample_cap,
            )
        except ReproError as exc:
            emit("cell.error", cell=cell.cell_id, error=str(exc))
            raise
        emit(
            "cell.finish",
            cell=cell.cell_id,
            status=row.get("status", "complete"),
            evaluations=row.get("num_evaluations"),
            best_cost=_stream_cost(row["best_cost"])
            if isinstance(row.get("best_cost"), (int, float))
            else None,
        )
        return row


def _execute_cell(
    cell: SuiteCell,
    config: dict[str, Any],
    seed: int,
    registry: RunRegistry,
    run,
    evaluator: Evaluator | None = None,
    sample_cap: int | None = None,
) -> dict[str, Any]:
    """The scheme run and result persistence of :func:`run_cell`."""
    if evaluator is None:
        evaluator = Evaluator(get_model(cell.network), cell_accelerator(cell))
    # Warm-start from the registry's persisted per-(network, element
    # width) summary scalars: restarted and freshly sharded workers skip
    # re-pricing every subgraph an earlier cell already priced. Absorbing
    # is pure (summaries are deterministic values), so results are
    # bit-identical with or without the preload.
    warm = registry.load_warm_summaries(cell.network, cell.bytes_per_element)
    if warm:
        evaluator.absorb_summaries(warm)
    scheme = _SCHEME_TABLE[cell.scheme](
        cell, seed, evaluator, SCALES[cell.scale], sample_cap
    )
    outcome, evaluations = _drive(scheme, run)
    registry.save_warm_summaries(
        cell.network, cell.bytes_per_element, evaluator.export_summaries()
    )
    # Cache/batch-pricing counters for the aggregation layer's hit-rate
    # series (write-only; the search never reads telemetry back).
    emit("evaluator.stats", cell=cell.cell_id, stats=evaluator.stats())
    if outcome is None:
        return {
            **config,
            "seed": seed,
            "status": "exhausted",
            "num_evaluations": evaluations,
        }
    best_cost, memory, cost = outcome
    result = {
        **config,
        "seed": seed,
        "status": "complete",
        "best_cost": best_cost,
        "capacity_bytes": memory.total_bytes,
        "ema_bytes": cost.ema_bytes,
        "energy_pj": cost.energy_pj,
        "num_subgraphs": cost.num_subgraphs,
        "num_evaluations": evaluations,
    }
    run.finish(result)
    return result


# ---------------------------------------------------------------------------
# The sharded task (one instance per worker process)
# ---------------------------------------------------------------------------
class SuiteCellTask:
    """Picklable cell executor: :func:`run_cell` plus durable failures.

    ``run_suite`` maps it over the ``(cell, sample_cap)`` pairs of
    :func:`~repro.distrib.budget.claimable_cells`, and ``repro worker``
    calls it on each pair it leases. Each worker process holds one
    instance for the campaign's lifetime, and with it one
    :class:`RunRegistry`, built on its first cell and never pickled. The
    registry's view of each warm file therefore outlives the cell: the
    next cell on the same graph warm-starts from the summaries every
    earlier cell saved, and parses and encodes only the entries that are
    new to the file.
    """

    def __init__(self, matrix: SuiteMatrix, registry_root: str | Path):
        self.matrix = matrix
        self.registry_root = str(registry_root)
        self._registry: RunRegistry | None = None

    def __getstate__(self) -> dict[str, Any]:
        # Each pool worker builds its own registry on its first cell.
        return {**self.__dict__, "_registry": None}

    def __call__(self, item: tuple[SuiteCell, int | None]) -> dict[str, Any]:
        """Run one ``(cell, sample_cap)`` pair, as the scheduler claims it.

        ``sample_cap`` is the cell's current cumulative cap, ``None`` in
        an unbudgeted campaign. Deterministic in-cell failures are
        recorded durably (``error.json``), so every runner sees the cell
        as terminated rather than stalled.
        """
        cell, sample_cap = item
        if self._registry is None:
            self._registry = RunRegistry(self.registry_root)
        registry = self._registry
        try:
            return run_cell(
                cell, self.matrix.seed, registry, sample_cap=sample_cap
            )
        except ReproError as exc:
            config = cell.config_dict()
            seed = cell.seed(self.matrix.seed)
            registry.open_run(config, seed).record_error(str(exc))
            return {
                **config,
                "seed": seed,
                "status": "failed",
                "error": str(exc),
            }


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------
REPORT_HEADERS = (
    "network",
    "mode",
    "metric",
    "bpe",
    "scheme",
    "alpha",
    "seed",
    "best_cost",
    "capacity_KB",
    "ema_MB",
    "energy_mJ",
    "subgraphs",
    "evaluations",
    "status",
)


@dataclass
class SuiteOutcome:
    """What one ``run_suite`` invocation did, plus the merged report."""

    report: ExperimentResult
    total: int
    completed: int
    skipped: int
    failed: int
    rounds: int
    #: ``cell_id -> (state, message)`` for every unfinished cell; the
    #: state is ``failed``, ``exhausted`` or ``incomplete``.
    errors: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: Cells stopped at the campaign sample budget: resumable (their
    #: checkpoints are durable) but out of samples. Always 0 for
    #: unbudgeted campaigns.
    exhausted: int = 0

    def summary(self) -> str:
        text = (
            f"{self.total} cells: {self.skipped} already complete, "
            f"{self.completed} run, {self.failed} failed/incomplete "
            f"({self.rounds} round(s))"
        )
        if self.exhausted:
            text += f", {self.exhausted} out of sample budget"
        return text


def _result_row(result: dict[str, Any]) -> tuple:
    """One merged-report row from a cell's stored result dict."""
    if result.get("status") != "complete":
        return (
            result.get("network", "?"),
            result.get("mode", "?"),
            result.get("metric", "?"),
            result.get("bytes_per_element", "?"),
            result.get("scheme", "?"),
            result.get("alpha", "?"),
            result.get("seed", "?"),
            "-", "-", "-", "-", "-", "-",
            result.get("status", "incomplete"),
        )
    return (
        result["network"],
        result["mode"],
        result["metric"],
        result["bytes_per_element"],
        result["scheme"],
        result["alpha"],
        result["seed"],
        result["best_cost"],
        round(to_kb(result["capacity_bytes"]), 1),
        round(to_mb(result["ema_bytes"]), 4),
        round(result["energy_pj"] / 1e9, 4),
        result["num_subgraphs"],
        result["num_evaluations"],
        "complete",
    )


def merged_report(
    matrix: SuiteMatrix, registry: RunRegistry
) -> ExperimentResult:
    """Merge every cell's stored result into one report, matrix order.

    Rows come exclusively from the registry's durable ``result.json``
    files, so a killed-and-resumed campaign merges to exactly the same
    report as an uninterrupted one.
    """
    from ..distrib.budget import campaign_progress

    return _fold_report(
        matrix, campaign_progress(registry, matrix.cells(), matrix.seed)
    )


def _fold_report(
    matrix: SuiteMatrix, progress: dict[tuple, CellProgress]
) -> ExperimentResult:
    """The merged report, folded from a campaign progress map."""
    cells = matrix.cells()
    report = ExperimentResult(
        experiment=(
            f"suite: {len(cells)} cells, scale={matrix.scale}, "
            f"campaign seed={matrix.seed}"
        ),
        headers=REPORT_HEADERS,
        extra={"campaign_seed": matrix.seed, "scale": matrix.scale},
    )
    for cell in cells:
        state = progress[cell.key]
        result = state.result if state.complete else {
            **cell.config_dict(),
            "seed": cell.seed(matrix.seed),
            "status": "failed" if state.failed else "incomplete",
        }
        report.add_row(*_result_row(result))
    return report


@dataclass
class CampaignTally:
    """Durable-state classification of a campaign's cells.

    Shared by the local runner and the distributed coordinator so both
    derive identical outcome counts (and identical operator guidance)
    from identical registry bytes.
    """

    completed: list[SuiteCell]
    #: Deterministic in-cell failures (durable ``error.json``).
    failed: dict[str, str]
    #: Unfinished cells sitting exactly at their sample cap.
    exhausted: list[SuiteCell]
    #: Unfinished cells *below* their cap: killed mid-run or never run.
    incomplete: list[SuiteCell]

    def errors(self) -> dict[str, tuple[str, str]]:
        """``cell_id -> (state, message)`` for every unfinished cell."""
        messages = {
            cell_id: ("failed", error) for cell_id, error in self.failed.items()
        }
        for cell in self.exhausted:
            messages[cell.cell_id] = (
                "exhausted",
                "sample budget exhausted; checkpoint retained — re-run "
                "with a larger --budget to continue",
            )
        for cell in self.incomplete:
            messages[cell.cell_id] = (
                "incomplete",
                "no durable result (its worker died, or the runner "
                "stopped after workers kept dying); re-run to resume",
            )
        return messages


def classify_campaign(
    registry: RunRegistry,
    cells: list[SuiteCell],
    campaign_seed: int,
    budget: int | None,
) -> CampaignTally:
    """Classify every cell from durable registry state alone."""
    from ..distrib.budget import campaign_progress

    return _fold_tally(
        cells, budget, campaign_progress(registry, cells, campaign_seed)
    )


def _fold_tally(
    cells: list[SuiteCell],
    budget: int | None,
    progress: dict[tuple, CellProgress],
) -> CampaignTally:
    """The campaign tally, folded from a campaign progress map."""
    from ..distrib.budget import compute_allocations

    at_cap: frozenset = frozenset()
    if budget is not None:
        at_cap = compute_allocations(cells, budget, progress).exhausted
    tally = CampaignTally(completed=[], failed={}, exhausted=[], incomplete=[])
    for cell in cells:
        state = progress[cell.key]
        if state.complete:
            tally.completed.append(cell)
        elif state.failed:
            tally.failed[cell.cell_id] = state.error
        elif cell.key in at_cap:
            tally.exhausted.append(cell)
        else:
            tally.incomplete.append(cell)
    return tally


def campaign_outcome(
    matrix: SuiteMatrix,
    budget: int | None,
    progress: dict[tuple, CellProgress],
    rounds: int,
    skipped: int,
) -> SuiteOutcome:
    """The outcome of a campaign run, folded from its last progress map.

    ``skipped`` counts the cells that were complete before the run. The
    local runner and the distributed coordinator both end here.
    """
    cells = matrix.cells()
    tally = _fold_tally(cells, budget, progress)
    return SuiteOutcome(
        report=_fold_report(matrix, progress),
        total=len(cells),
        completed=len(tally.completed) - skipped,
        skipped=skipped,
        failed=len(tally.failed) + len(tally.incomplete),
        rounds=rounds,
        errors=tally.errors(),
        exhausted=len(tally.exhausted),
    )


def run_suite(
    matrix: SuiteMatrix,
    registry_root: str | Path,
    workers: int = 1,
    budget: int | None = None,
) -> SuiteOutcome:
    """Run (or resume) a campaign, sharding cells across ``workers``.

    One loop serves every campaign. Each round probes the registry once
    (:func:`~repro.distrib.budget.campaign_progress`) and maps the
    ``(cell, cap)`` pairs :func:`~repro.distrib.budget.claimable_cells`
    returns across ``workers`` processes; each cell runs its search
    serially in the process that claimed it. The loop ends when nothing
    is claimable. Complete cells are skipped, and so are cells with a
    durable ``error.json``: a deterministic failure is terminal here as
    in every other runner (delete the file to retry the cell).
    Incomplete cells run, resuming from their checkpoints.

    If a worker process dies mid-cell the backend's pool breaks, and
    the next round rebuilds it and retries every claimable cell, so a
    killed cell is retried, never recorded as complete. The runner
    stops once ``workers`` rounds in a row have broken with no cell
    completing or failing since the previous broken round — the crash
    bound the distributed coordinator applies to worker deaths — and
    returns its outcome with the unfinished cells incomplete.

    Without a ``budget`` every unfinished cell is claimable with no cap,
    and one clean round finishes the campaign. ``budget`` caps the
    campaign's *total* evaluation count: cells get deterministic
    per-cell sample allocations (see :mod:`repro.distrib.budget`), run
    until their cap, and unspent samples from converged cells are
    re-granted to unconverged ones in later rounds. The budgeted
    schedule is a pure function of (matrix, budget, durable registry
    state), so a budgeted campaign — local, sharded, or distributed
    across machines — always produces the same merged report for the
    same inputs.
    """
    from ..distrib.budget import (
        campaign_progress,
        claimable_cells,
        settled_cells,
    )

    registry = RunRegistry(registry_root)
    cells = matrix.cells()
    if len({cell.key for cell in cells}) != len(cells):
        raise ConfigError("suite matrix expands to duplicate cells")
    progress = campaign_progress(registry, cells, matrix.seed)
    skipped = sum(1 for state in progress.values() if state.complete)
    task = SuiteCellTask(matrix, registry_root)
    backend: EvaluationBackend = resolve_backend(workers)
    rounds = 0
    # Broken rounds in a row with no cell settling since the previous one.
    broken = 0
    try:
        while broken < max(1, workers):
            runnable = claimable_cells(cells, budget, progress)
            if not runnable:
                break
            rounds += 1
            settled = settled_cells(progress)
            try:
                backend.map(task, runnable)
                broken = 0
            except BrokenProcessPool:
                # One or more workers died mid-cell. Their finished
                # cells are durable; the next round retries the rest on
                # a fresh pool (backend.map already tore the old one
                # down).
                broken += 1
            progress = campaign_progress(registry, cells, matrix.seed)
            if settled_cells(progress) > settled:
                # A cell completed or failed since the previous round:
                # a run of broken rounds starts over at this one.
                broken = min(broken, 1)
    finally:
        backend.close()
    return campaign_outcome(
        matrix, budget, progress, rounds=rounds, skipped=skipped
    )
