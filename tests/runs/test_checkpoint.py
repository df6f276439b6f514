"""Generation-level checkpoint/resume: bit-identical continuation.

The contract: a run interrupted after any generation and resumed from
its checkpoint — in the same process, or after a JSON round trip in a
fresh process with cold evaluator caches — finishes with exactly the
result of a run that was never interrupted: same best cost, same best
genome, same evaluation counter, same history, same telemetry.
"""

from __future__ import annotations

import json

import pytest

from repro.config import MemoryConfig
from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.dse.nsga import NSGAConfig, nsga2_co_optimize
from repro.errors import SearchError
from repro.ga.engine import EngineCheckpoint, GAConfig, GeneticEngine
from repro.ga.problem import OptimizationProblem
from repro.parallel import ProcessPoolBackend
from repro.runs.checkpoint import (
    ga_checkpoint_from_dict,
    ga_checkpoint_to_dict,
    genome_from_dict,
    genome_to_dict,
    memory_from_dict,
    memory_to_dict,
    nsga_checkpoint_from_dict,
    nsga_checkpoint_to_dict,
)
from repro.search_space import CapacitySpace
from repro.units import kb

from ..conftest import build_chain


@pytest.fixture(scope="module")
def graph():
    return build_chain(depth=6)


def co_problem(graph) -> OptimizationProblem:
    return OptimizationProblem(
        evaluator=Evaluator(graph),
        metric=Metric.ENERGY,
        alpha=0.002,
        space=CapacitySpace.paper_separate(),
    )


GA_CONFIG = GAConfig(
    population_size=10, generations=6, seed=11, record_samples=True
)


def ga_fingerprint(result) -> tuple:
    return (
        result.best_cost,
        result.best_genome.key(),
        result.num_evaluations,
        result.history,
        [
            (s.index, s.cost, s.total_buffer_bytes, s.generation)
            for s in result.samples
        ],
    )


def ga_results_equal(a, b) -> bool:
    return ga_fingerprint(a) == ga_fingerprint(b)


class ResumeFromJson:
    """Resumes a JSON checkpoint on a fresh graph, in whichever process
    runs it (module level, so a pool worker can unpickle it)."""

    def __call__(self, blob: str) -> tuple:
        graph = build_chain(depth=6)
        checkpoint = ga_checkpoint_from_dict(json.loads(blob), graph)
        result = GeneticEngine(co_problem(graph), GA_CONFIG).resume(checkpoint)
        return ga_fingerprint(result)


def capture_checkpoints(graph, config=GA_CONFIG) -> dict[int, EngineCheckpoint]:
    checkpoints: dict[int, EngineCheckpoint] = {}
    GeneticEngine(co_problem(graph), config).run(
        on_generation=lambda ck: checkpoints.__setitem__(ck.generation, ck)
    )
    return checkpoints


# ---------------------------------------------------------------------------
class TestGenomeSerialization:
    def test_memory_round_trip(self):
        for memory in (
            MemoryConfig.separate(kb(512), kb(576)),
            MemoryConfig.shared(kb(1024)),
        ):
            assert memory_from_dict(memory_to_dict(memory)) == memory

    def test_genome_round_trip_crosses_graph_instances(self, graph):
        problem = co_problem(graph)
        import random

        genome = problem.random_genome(random.Random(0))
        clone_graph = build_chain(depth=6)
        rebuilt = genome_from_dict(genome_to_dict(genome), clone_graph)
        assert rebuilt.key() == genome.key()


# ---------------------------------------------------------------------------
class TestEngineResume:
    def test_hook_sees_every_generation(self, graph):
        checkpoints = capture_checkpoints(graph)
        assert sorted(checkpoints) == list(range(0, GA_CONFIG.generations + 1))

    def test_resume_every_generation_is_bit_identical(self, graph):
        full = GeneticEngine(co_problem(graph), GA_CONFIG).run()
        checkpoints = capture_checkpoints(graph)
        for generation in (0, 2, GA_CONFIG.generations - 1):
            resumed = GeneticEngine(co_problem(graph), GA_CONFIG).resume(
                checkpoints[generation]
            )
            assert ga_results_equal(resumed, full), f"gen {generation}"

    def test_resume_after_json_round_trip_with_cold_caches(self, graph):
        """The registry path: checkpoint -> JSON -> fresh process state
        (new problem, new evaluator, rebuilt genomes)."""
        full = GeneticEngine(co_problem(graph), GA_CONFIG).run()
        checkpoint = capture_checkpoints(graph)[3]
        blob = json.dumps(ga_checkpoint_to_dict(checkpoint))
        restored = ga_checkpoint_from_dict(json.loads(blob), graph)
        resumed = GeneticEngine(co_problem(graph), GA_CONFIG).resume(restored)
        assert ga_results_equal(resumed, full)

    def test_resume_with_process_pool_backend(self, graph):
        """A suite cell may resume in another process than the one that
        checkpointed it: here, in the workers of the cell runner."""
        full = GeneticEngine(co_problem(graph), GA_CONFIG).run()
        checkpoints = capture_checkpoints(graph)
        blobs = [
            json.dumps(ga_checkpoint_to_dict(checkpoints[generation]))
            for generation in (0, 2, 4)
        ]
        backend = ProcessPoolBackend(workers=2)
        try:
            resumed = backend.map(ResumeFromJson(), blobs)
        finally:
            backend.close()
        assert resumed == [ga_fingerprint(full)] * len(blobs)

    def test_resume_from_final_generation_returns_result(self, graph):
        full = GeneticEngine(co_problem(graph), GA_CONFIG).run()
        checkpoint = capture_checkpoints(graph)[GA_CONFIG.generations]
        resumed = GeneticEngine(co_problem(graph), GA_CONFIG).resume(checkpoint)
        assert ga_results_equal(resumed, full)

    def test_checkpoint_beyond_config_rejected(self, graph):
        checkpoint = capture_checkpoints(graph)[4]
        short = GAConfig(population_size=10, generations=2, seed=11)
        with pytest.raises(SearchError):
            GeneticEngine(co_problem(graph), short).resume(checkpoint)

    def test_checkpoint_copies_are_defensive(self, graph):
        checkpoints = capture_checkpoints(graph)
        first, last = checkpoints[0], checkpoints[GA_CONFIG.generations]
        assert len(first.history) <= len(last.history)
        first.history.append((999, 0.0))
        assert (999, 0.0) not in last.history


# ---------------------------------------------------------------------------
NSGA_CONFIG = NSGAConfig(population_size=8, generations=5, seed=3)


def nsga_front_key(result):
    return [
        (p.capacity_bytes, p.metric_cost, p.genome.key()) for p in result.front
    ]


class TestNSGAResume:
    def run_full(self, graph):
        return nsga2_co_optimize(
            Evaluator(graph),
            CapacitySpace.paper_shared(),
            metric=Metric.ENERGY,
            config=NSGA_CONFIG,
        )

    def capture(self, graph):
        checkpoints = {}
        nsga2_co_optimize(
            Evaluator(graph),
            CapacitySpace.paper_shared(),
            metric=Metric.ENERGY,
            config=NSGA_CONFIG,
            on_generation=lambda ck: checkpoints.__setitem__(
                ck.generation, ck
            ),
        )
        return checkpoints

    def test_resume_bit_identical(self, graph):
        full = self.run_full(graph)
        checkpoints = self.capture(graph)
        for generation in (0, 2, 4):
            restored = nsga_checkpoint_from_dict(
                json.loads(
                    json.dumps(nsga_checkpoint_to_dict(checkpoints[generation]))
                ),
                graph,
            )
            resumed = nsga2_co_optimize(
                Evaluator(graph),
                CapacitySpace.paper_shared(),
                metric=Metric.ENERGY,
                config=NSGA_CONFIG,
                resume_from=restored,
            )
            assert resumed.num_evaluations == full.num_evaluations
            assert resumed.history == full.history
            assert nsga_front_key(resumed) == nsga_front_key(full)

    def test_archive_preserves_dedup_counting(self, graph):
        """Without the archive, a resumed run would re-evaluate genomes
        the original had cached and inflate num_evaluations."""
        checkpoints = self.capture(graph)
        checkpoint = checkpoints[2]
        assert len(checkpoint.archive) >= len(checkpoint.points)

    def test_checkpoint_beyond_config_rejected(self, graph):
        checkpoint = self.capture(graph)[4]
        short = NSGAConfig(population_size=8, generations=2, seed=3)
        with pytest.raises(SearchError):
            nsga2_co_optimize(
                Evaluator(graph),
                CapacitySpace.paper_shared(),
                metric=Metric.ENERGY,
                config=short,
                resume_from=checkpoint,
            )


# ---------------------------------------------------------------------------
class TestNewKindRoundTrips:
    """JSON round trips of the composite checkpoint kinds added for the
    island-model and two-step searchers: ``islands``, ``two_step``, and
    the suite scheme stamps ``rs``/``gs``. Each rebuilds against a
    *fresh* graph object (cold caches, as after a process boundary)."""

    def islands_checkpoint(self, graph):
        from repro.ga.islands import IslandConfig, island_search

        config = IslandConfig(
            base=GAConfig(population_size=6, generations=1, seed=0),
            num_islands=2, epochs=2, epoch_generations=2, seed=3,
        )
        checkpoints = []
        island_search(
            co_problem(graph), config, on_generation=checkpoints.append
        )
        return config, checkpoints[len(checkpoints) // 2]

    def two_step_checkpoint(self, graph):
        from repro.dse.two_step import random_search_ga

        checkpoints = []
        random_search_ga(
            Evaluator(graph), CapacitySpace.paper_separate(),
            num_candidates=2,
            ga_config=GAConfig(population_size=6, generations=2, seed=0),
            seed=7, on_checkpoint=checkpoints.append,
        )
        return checkpoints[len(checkpoints) // 2]

    def test_islands_round_trip(self, graph):
        from repro.runs.checkpoint import (
            islands_checkpoint_from_dict,
            islands_checkpoint_to_dict,
        )

        _, checkpoint = self.islands_checkpoint(graph)
        payload = json.loads(json.dumps(islands_checkpoint_to_dict(checkpoint)))
        assert payload["kind"] == "islands"
        assert payload["evaluations"] == checkpoint.evaluations
        rebuilt = islands_checkpoint_from_dict(payload, build_chain(depth=6))
        assert rebuilt.epoch == checkpoint.epoch
        assert rebuilt.island == checkpoint.island
        assert rebuilt.evaluations == checkpoint.evaluations
        assert rebuilt.history == checkpoint.history
        assert rebuilt.migration_rng_state == checkpoint.migration_rng_state
        assert rebuilt.best_cost == checkpoint.best_cost
        assert rebuilt.best_genome.key() == checkpoint.best_genome.key()
        assert len(rebuilt.islands) == len(checkpoint.islands)
        for mine, theirs in zip(rebuilt.islands, checkpoint.islands):
            assert mine.generation == theirs.generation
            assert mine.rng_state == theirs.rng_state
            assert mine.evaluations == theirs.evaluations
            assert mine.costs == theirs.costs
            assert [g.key() for g in mine.population] == [
                g.key() for g in theirs.population
            ]
        assert [
            [g.key() for g in population] for population in rebuilt.populations
        ] == [
            [g.key() for g in population]
            for population in checkpoint.populations
        ]

    @pytest.mark.parametrize("kind", ["two_step", "rs", "gs"])
    def test_two_step_round_trip(self, graph, kind):
        from repro.runs.checkpoint import (
            two_step_checkpoint_from_dict,
            two_step_checkpoint_to_dict,
        )

        checkpoint = self.two_step_checkpoint(graph)
        payload = json.loads(
            json.dumps(two_step_checkpoint_to_dict(checkpoint, kind=kind))
        )
        assert payload["kind"] == kind
        assert payload["evaluations"] == checkpoint.evaluations
        rebuilt = two_step_checkpoint_from_dict(
            payload, build_chain(depth=6), kind=kind
        )
        assert rebuilt.method == checkpoint.method
        assert rebuilt.candidate == checkpoint.candidate
        assert rebuilt.cumulative == checkpoint.cumulative
        assert rebuilt.evaluations == checkpoint.evaluations
        assert rebuilt.history == checkpoint.history
        assert rebuilt.running_best == checkpoint.running_best
        assert rebuilt.best_index == checkpoint.best_index
        assert rebuilt.best_cost == checkpoint.best_cost
        assert rebuilt.candidates == checkpoint.candidates
        assert rebuilt.engine.generation == checkpoint.engine.generation
        assert rebuilt.engine.rng_state == checkpoint.engine.rng_state

    def test_two_step_kind_must_match(self, graph):
        from repro.errors import ConfigError
        from repro.runs.checkpoint import (
            two_step_checkpoint_from_dict,
            two_step_checkpoint_to_dict,
        )

        checkpoint = self.two_step_checkpoint(graph)
        payload = two_step_checkpoint_to_dict(checkpoint, kind="rs")
        with pytest.raises(ConfigError):
            two_step_checkpoint_from_dict(payload, graph, kind="gs")
        # without an expected kind, any two-step stamp is accepted
        assert two_step_checkpoint_from_dict(payload, graph) is not None

    def test_unknown_kind_rejected(self, graph):
        from repro.errors import ConfigError
        from repro.runs.checkpoint import (
            islands_checkpoint_from_dict,
            two_step_checkpoint_from_dict,
            two_step_checkpoint_to_dict,
        )

        checkpoint = self.two_step_checkpoint(graph)
        with pytest.raises(ConfigError):
            two_step_checkpoint_to_dict(checkpoint, kind="sa")
        payload = two_step_checkpoint_to_dict(checkpoint)
        with pytest.raises(ConfigError):
            islands_checkpoint_from_dict(payload, graph)
        payload["kind"] = "bogus"
        with pytest.raises(ConfigError):
            two_step_checkpoint_from_dict(payload, graph)
        payload["kind"] = "two_step"
        payload["format"] = 99
        with pytest.raises(ConfigError):
            two_step_checkpoint_from_dict(payload, graph)
        # Every kind rejects a document that is not an object, misses a
        # key or holds a value of the wrong JSON type. The composites'
        # top-level ``evaluations`` is derived and never read back.
        for kind, payload, from_dict in self.documents(graph):
            keys = [
                key for key in payload
                if key != "evaluations" or kind in ("ga", "sa", "nsga")
            ]
            broken = [("[]", [])]
            for key in keys:
                missing = {k: v for k, v in payload.items() if k != key}
                wrong = "x" if not isinstance(payload[key], str) else 0
                broken.append((f"missing {key}", missing))
                broken.append((f"{key}={wrong!r}", {**payload, key: wrong}))
            for case, document in broken:
                try:
                    from_dict(document, graph)
                except ConfigError:
                    continue
                pytest.fail(f"{kind} checkpoint accepted with {case}")

    def documents(self, graph):
        """One serialized checkpoint of every kind, with its decoder."""
        from repro.ga.annealing import SAConfig, simulated_annealing
        from repro.runs.checkpoint import (
            islands_checkpoint_from_dict,
            islands_checkpoint_to_dict,
            sa_checkpoint_from_dict,
            sa_checkpoint_to_dict,
            two_step_checkpoint_from_dict,
            two_step_checkpoint_to_dict,
        )

        sa_steps = []
        simulated_annealing(
            co_problem(graph), SAConfig(steps=8, seed=1, checkpoint_interval=4),
            on_step=sa_steps.append,
        )
        nsga_generations = TestNSGAResume().capture(graph)
        return [
            ("ga", ga_checkpoint_to_dict(capture_checkpoints(graph)[2]),
             ga_checkpoint_from_dict),
            ("islands",
             islands_checkpoint_to_dict(self.islands_checkpoint(graph)[1]),
             islands_checkpoint_from_dict),
            ("rs",
             two_step_checkpoint_to_dict(
                 self.two_step_checkpoint(graph), kind="rs"
             ),
             two_step_checkpoint_from_dict),
            ("sa", sa_checkpoint_to_dict(sa_steps[-1]), sa_checkpoint_from_dict),
            ("nsga", nsga_checkpoint_to_dict(nsga_generations[2]),
             nsga_checkpoint_from_dict),
        ]


# ---------------------------------------------------------------------------
class TestCodecRules:
    def test_unknown_annotation_is_a_programming_error(self):
        from dataclasses import dataclass

        from repro.runs.checkpoint import _codec

        @dataclass
        class Tagged:
            tags: set[str]

        with pytest.raises(TypeError, match="no checkpoint codec rule"):
            _codec(Tagged)

    def test_nested_values_are_checked(self, graph):
        from repro.errors import ConfigError

        payload = json.loads(
            json.dumps(ga_checkpoint_to_dict(capture_checkpoints(graph)[1]))
        )
        cases = [
            (("costs", 0), "x"),
            (("rng_state", 1, 0), 1.5),
            (("history", 0, 0), None),
            (("samples", 0, "cost"), "x"),
            (("population", 0, "assignment"), []),
            (("population", 0, "assignment"), {"nowhere": 0}),
            (("population", 0, "memory", "mode"), 3),
            (("population", 0, "memory"), {"mode": "shared"}),
        ]
        for path, value in cases:
            document = json.loads(json.dumps(payload))
            parent = document
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = value
            with pytest.raises(ConfigError, match="malformed ga checkpoint"):
                ga_checkpoint_from_dict(document, graph)
