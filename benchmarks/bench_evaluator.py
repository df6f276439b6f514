"""Evaluation-pipeline benchmark: profile / price / population / generations.

Times every stage of the genome-evaluation pipeline — memory-independent
subgraph profiling, memory-dependent pricing, fresh-population evaluation
(repair + objective), cross-genome batched population pricing
(``summarize_population``: shape-class tensor batching + GOMA-style
closed-form direct solves, vs the per-genome incremental loop), and a
short GA generation loop — once through the fast pipeline
(:class:`repro.cost.evaluator.Evaluator`, single-pass
tiling + vectorized kernels + incremental summaries) and once through the
retained pre-optimization reference
(:class:`repro.cost.reference.ReferenceEvaluator`). Results are asserted
bit-identical at every stage; only the wall-clock may differ.

Writes a machine-readable ``BENCH_evaluator.json`` (ops/sec per stage plus
fast-vs-reference speedups) so the performance trajectory is tracked PR
over PR, and can compare itself against a committed baseline with
``--check-against`` — the regression rule uses the fast/reference
*speedup ratio*, which is largely machine-independent, and fails on a
>2x regression.

As a script::

    PYTHONPATH=src python benchmarks/bench_evaluator.py \
        --model resnet50 --population 60 --output BENCH_evaluator.json

    # CI quick mode + regression gate:
    PYTHONPATH=src python benchmarks/bench_evaluator.py --quick \
        --output BENCH_evaluator.json \
        --check-against benchmarks/baselines/BENCH_evaluator_baseline.json

Under pytest (identity always asserted; the >= 3x population-evaluation
speedup is enforced in the full configuration)::

    python -m pytest benchmarks/bench_evaluator.py
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time

import pytest

from repro.cost.evaluator import Evaluator
from repro.cost.objective import Metric
from repro.cost.reference import ReferenceEvaluator
from repro.config import MemoryConfig
from repro.experiments.common import paper_accelerator, paper_memory
from repro.ga.engine import GAConfig, GeneticEngine
from repro.ga.genome import Genome
from repro.ga.problem import OptimizationProblem
from repro.graphs.zoo import get_model
from repro.partition.random_init import random_partition
from repro.units import kb, mb

#: The acceptance bar for the population-evaluation microbenchmark.
TARGET_SPEEDUP = 3.0
#: The acceptance bar for batched population pricing vs the incremental
#: (per-genome) path on a cold evaluator.
TARGET_BATCH_SPEEDUP = 2.0
#: A committed-baseline speedup may degrade by at most this factor.
REGRESSION_TOLERANCE = 2.0
#: Telemetry (sink active, events streaming to disk) may slow the
#: generation loop by at most this fraction.
TELEMETRY_OVERHEAD_CEILING = 0.05
#: Enabled/disabled run pairs the telemetry overhead is the median of:
#: even, so that each side goes first equally often.
TELEMETRY_PAIRS = 40

_PRICE_MEMORIES = (
    MemoryConfig.separate(mb(1), kb(1152)),
    MemoryConfig.separate(kb(256), kb(256)),
    MemoryConfig.shared(kb(1152)),
    MemoryConfig.shared(kb(256)),
)


def _sample_subgraphs(graph, count: int, seed: int) -> list[frozenset[str]]:
    rng = random.Random(seed)
    sets: list[frozenset[str]] = []
    seen: set[frozenset[str]] = set()
    while len(sets) < count:
        for members in random_partition(graph, rng).subgraph_sets:
            if members not in seen:
                seen.add(members)
                sets.append(members)
    return sets[:count]


def _best_of(reps: int, fn) -> float:
    return min(fn() for _ in range(max(1, reps)))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
def stage_profile(graph, subgraphs, accel, reps: int) -> dict:
    """Memory-independent profiling: single-pass vs per-candidate walks."""
    from repro.cost.ema import profile_subgraph, profile_subgraph_reference

    fast = [profile_subgraph(graph, m, accel.bytes_per_element) for m in subgraphs]
    ref = [
        profile_subgraph_reference(graph, m, accel.bytes_per_element)
        for m in subgraphs
    ]
    if fast != ref:
        raise AssertionError("fast profile diverged from reference profile")

    def run_fast() -> float:
        t0 = time.perf_counter()
        for m in subgraphs:
            profile_subgraph(graph, m, accel.bytes_per_element)
        return time.perf_counter() - t0

    def run_ref() -> float:
        t0 = time.perf_counter()
        for m in subgraphs:
            profile_subgraph_reference(graph, m, accel.bytes_per_element)
        return time.perf_counter() - t0

    t_fast, t_ref = _best_of(reps, run_fast), _best_of(reps, run_ref)
    n = len(subgraphs)
    return {
        "ops": n,
        "fast_ops_per_sec": n / t_fast,
        "reference_ops_per_sec": n / t_ref,
        "speedup": t_ref / t_fast,
    }


def stage_price(graph, subgraphs, accel, reps: int) -> dict:
    """Memory-dependent pricing on pre-warmed profiles."""

    def build(cls):
        ev = cls(graph, accel)
        for m in subgraphs:
            ev.profile(m)
        return ev

    fast_ev, ref_ev = build(Evaluator), build(ReferenceEvaluator)
    fast_costs = [
        fast_ev.subgraph_cost(m, mem) for mem in _PRICE_MEMORIES for m in subgraphs
    ]
    ref_costs = [
        ref_ev.subgraph_cost(m, mem) for mem in _PRICE_MEMORIES for m in subgraphs
    ]
    if fast_costs != ref_costs:
        raise AssertionError("fast pricing diverged from reference pricing")

    def timed(ev_cls) -> float:
        ev = build(ev_cls)
        t0 = time.perf_counter()
        for mem in _PRICE_MEMORIES:
            for m in subgraphs:
                ev.subgraph_cost(m, mem)
        return time.perf_counter() - t0

    t_fast = _best_of(reps, lambda: timed(Evaluator))
    t_ref = _best_of(reps, lambda: timed(ReferenceEvaluator))
    n = len(subgraphs) * len(_PRICE_MEMORIES)
    return {
        "ops": n,
        "fast_ops_per_sec": n / t_fast,
        "reference_ops_per_sec": n / t_ref,
        "speedup": t_ref / t_fast,
    }


def stage_population(graph, accel, population: int, seed: int, reps: int) -> dict:
    """The acceptance microbenchmark: evaluate one fresh population.

    Repair + objective for ``population`` random genomes on a cold
    evaluator, fast incremental pipeline vs the pre-optimization
    reference. Asserts identical repairs, identical objective values,
    and bit-identical ``PartitionCost`` for every evaluated genome.
    """
    memory = paper_memory()
    rng = random.Random(seed)
    raw = [
        Genome(partition=random_partition(graph, rng), memory=memory)
        for _ in range(population)
    ]

    def build(cls):
        return OptimizationProblem(
            evaluator=cls(graph, accel),
            metric=Metric.EMA,
            alpha=None,
            fixed_memory=memory,
        )

    def evaluate(problem):
        repaired = [problem.repair(g) for g in raw]
        return repaired, [problem.cost(g) for g in repaired]

    fast_problem = build(Evaluator)
    ref_problem = build(ReferenceEvaluator)
    fast_genomes, fast_costs = evaluate(fast_problem)
    ref_genomes, ref_costs = evaluate(ref_problem)
    if [g.key() for g in fast_genomes] != [g.key() for g in ref_genomes]:
        raise AssertionError("incremental repair diverged from reference")
    if fast_costs != ref_costs:
        raise AssertionError("incremental objectives diverged from reference")
    for genome in fast_genomes:
        fast_cost = fast_problem.evaluator.evaluate(
            genome.partition.subgraph_sets, memory
        )
        ref_cost = ref_problem.evaluator.evaluate(
            genome.partition.subgraph_sets, memory
        )
        if fast_cost != ref_cost:
            raise AssertionError("PartitionCost not bit-identical")

    def timed(cls) -> float:
        problem = build(cls)
        t0 = time.perf_counter()
        evaluate(problem)
        return time.perf_counter() - t0

    t_fast = _best_of(reps, lambda: timed(Evaluator))
    t_ref = _best_of(reps, lambda: timed(ReferenceEvaluator))
    return {
        "ops": population,
        "fast_ops_per_sec": population / t_fast,
        "reference_ops_per_sec": population / t_ref,
        "speedup": t_ref / t_fast,
    }


def stage_population_batch(
    graph, accel, population: int, seed: int, reps: int
) -> dict:
    """Tensorized population pricing vs per-genome incremental pricing.

    Summarizes one fresh population of random partitions on a *cold*
    evaluator three ways — ``summarize_population`` (shape-class batched
    tensor pricing + GOMA-style direct solves), a per-genome
    ``summarize`` loop (the incremental path), and the pre-optimization
    reference — asserting all three bit-identical. ``speedup`` is
    batch-vs-incremental (both share the PR 2 single-subgraph kernels,
    so the ratio isolates what cross-genome batching adds);
    ``speedup_vs_reference`` tracks the full distance to the naive
    pipeline.
    """
    memory = paper_memory()
    rng = random.Random(seed)
    pops = [
        random_partition(graph, rng).subgraph_sets for _ in range(population)
    ]

    batch_ev = Evaluator(graph, accel)
    batched = batch_ev.summarize_population(pops, memory)
    incremental = [Evaluator(graph, accel).summarize(p, memory) for p in pops]
    reference = [
        ReferenceEvaluator(graph, accel).summarize(p, memory) for p in pops
    ]
    if batched != incremental or batched != reference:
        raise AssertionError("batched population pricing diverged")
    if batch_ev.num_batch_priced == 0:
        raise AssertionError("batch path did not run")

    def timed_batch() -> float:
        ev = Evaluator(graph, accel)
        t0 = time.perf_counter()
        ev.summarize_population(pops, memory)
        return time.perf_counter() - t0

    def timed_incremental() -> float:
        ev = Evaluator(graph, accel)
        t0 = time.perf_counter()
        for p in pops:
            ev.summarize(p, memory)
        return time.perf_counter() - t0

    def timed_reference() -> float:
        ev = ReferenceEvaluator(graph, accel)
        t0 = time.perf_counter()
        for p in pops:
            ev.summarize(p, memory)
        return time.perf_counter() - t0

    t_batch = _best_of(reps, timed_batch)
    t_incr = _best_of(reps, timed_incremental)
    t_ref = _best_of(reps, timed_reference)
    return {
        "ops": population,
        "fast_ops_per_sec": population / t_batch,
        "incremental_ops_per_sec": population / t_incr,
        "reference_ops_per_sec": population / t_ref,
        "speedup": t_incr / t_batch,
        "speedup_vs_reference": t_ref / t_batch,
        "direct_solve_share": (
            batch_ev.num_batch_direct / batch_ev.num_batch_priced
        ),
    }


def stage_generations(
    graph, accel, population: int, generations: int, seed: int, reps: int
) -> dict:
    """Short GA run: warm-cache behaviour across generations."""

    def run(cls):
        problem = OptimizationProblem(
            evaluator=cls(graph, accel),
            metric=Metric.EMA,
            alpha=None,
            fixed_memory=paper_memory(),
        )
        config = GAConfig(
            population_size=population,
            generations=generations,
            seed=seed,
        )
        t0 = time.perf_counter()
        result = GeneticEngine(problem, config).run()
        return result, time.perf_counter() - t0

    fast_result, _ = run(Evaluator)
    ref_result, _ = run(ReferenceEvaluator)
    if (
        fast_result.best_cost != ref_result.best_cost
        or fast_result.history != ref_result.history
        or fast_result.best_genome.key() != ref_result.best_genome.key()
        or fast_result.num_evaluations != ref_result.num_evaluations
    ):
        raise AssertionError("incremental GA diverged from reference GA")
    evaluations = fast_result.num_evaluations

    t_fast = _best_of(reps, lambda: run(Evaluator)[1])
    t_ref = _best_of(reps, lambda: run(ReferenceEvaluator)[1])
    return {
        "ops": evaluations,
        "fast_ops_per_sec": evaluations / t_fast,
        "reference_ops_per_sec": evaluations / t_ref,
        "speedup": t_ref / t_fast,
    }


def stage_telemetry(graph, accel, population: int, generations: int, seed: int) -> dict:
    """Telemetry overhead: the generation loop with the sink on vs off.

    Runs the same short GA twice — once with an active
    :class:`repro.obs.TelemetrySink` streaming events through a
    filesystem registry's root node, as campaign cells do, once with
    telemetry disabled (no sink, the production default for
    library use) — asserting bit-identical search results and measuring
    the enabled path's wall-clock overhead. ``overhead`` is the
    fractional slowdown (0.02 = 2%); the observability acceptance bar
    is < 5%.

    The runs alternate in :data:`TELEMETRY_PAIRS` enabled/disabled
    pairs, each pair swapping which side goes first, and ``overhead``
    is the median of the paired ratios: host-speed drift lands on both
    sides of a pair instead of reading as overhead.
    """
    import tempfile

    from repro.obs import TelemetrySink, activate
    from repro.runs.registry import RunRegistry

    def run(sink):
        problem = OptimizationProblem(
            evaluator=Evaluator(graph, accel),
            metric=Metric.EMA,
            alpha=None,
            fixed_memory=paper_memory(),
        )
        config = GAConfig(
            population_size=population, generations=generations, seed=seed
        )
        t0 = time.perf_counter()
        with activate(sink):
            result = GeneticEngine(problem, config).run()
        return result, time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        node = RunRegistry(tmp).root_node()

        def timed(enabled: bool) -> float:
            # Like timeit, time with the collector off (after a full
            # collection): a collection landing in one side of a pair
            # would otherwise read as overhead.
            gc.collect()
            gc.disable()
            try:
                return run(TelemetrySink(node) if enabled else None)[1]
            finally:
                gc.enable()

        check_sink = TelemetrySink(node)
        on_result, _ = run(check_sink)
        off_result, _ = run(None)
        if (
            on_result.best_cost != off_result.best_cost
            or on_result.history != off_result.history
            or on_result.num_evaluations != off_result.num_evaluations
            or on_result.best_genome.key() != off_result.best_genome.key()
        ):
            raise AssertionError("telemetry bent the search trajectory")
        if check_sink.events_written == 0:
            raise AssertionError("telemetry stage emitted no events")

        on_times: list[float] = []
        off_times: list[float] = []
        for pair in range(TELEMETRY_PAIRS):
            for enabled in (True, False) if pair % 2 == 0 else (False, True):
                (on_times if enabled else off_times).append(timed(enabled))

    t_on, t_off = statistics.median(on_times), statistics.median(off_times)
    ratio = statistics.median(on / off for on, off in zip(on_times, off_times))
    evaluations = on_result.num_evaluations
    return {
        "ops": evaluations,
        "fast_ops_per_sec": evaluations / t_off,
        "enabled_ops_per_sec": evaluations / t_on,
        "events_per_run": check_sink.events_written,
        "overhead": ratio - 1.0,
        # Uniform shape with the other stages (and harmless if this
        # stage ever lands in a committed baseline): disabled vs
        # enabled, ~1.0 when telemetry is free.
        "speedup": ratio,
        "reference_ops_per_sec": evaluations / t_on,
    }


# ---------------------------------------------------------------------------
def measure(
    model: str = "resnet50",
    population: int = 60,
    generations: int = 4,
    num_subgraphs: int = 120,
    seed: int = 0,
    reps: int = 3,
) -> dict:
    """Run all stages; raises on any fast/reference divergence."""
    graph = get_model(model)
    accel = paper_accelerator()
    subgraphs = _sample_subgraphs(graph, num_subgraphs, seed)
    stages = {
        "profile": stage_profile(graph, subgraphs, accel, reps),
        "price": stage_price(graph, subgraphs, accel, reps),
        "population": stage_population(graph, accel, population, seed, reps),
        "population_batch": stage_population_batch(
            graph, accel, population, seed, reps
        ),
        "generations": stage_generations(
            graph, accel, population, generations, seed, reps
        ),
        "telemetry": stage_telemetry(graph, accel, population, generations, seed),
    }
    return {
        "meta": {
            "model": model,
            "population": population,
            "generations": generations,
            "num_subgraphs": num_subgraphs,
            "seed": seed,
            "reps": reps,
        },
        "stages": stages,
    }


def check_regression(report: dict, baseline: dict) -> list[str]:
    """Speedup-ratio regression check against a committed baseline.

    Absolute ops/sec depends on the host, but the fast/reference speedup
    of each stage is a property of the code; a stage whose speedup fell
    below ``baseline / REGRESSION_TOLERANCE`` indicates the fast path
    lost its edge.
    """
    failures = []
    for name, stage in baseline.get("stages", {}).items():
        current = report["stages"].get(name)
        if current is None:
            failures.append(f"stage {name!r} missing from current report")
            continue
        floor = stage["speedup"] / REGRESSION_TOLERANCE
        if current["speedup"] < floor:
            failures.append(
                f"stage {name!r}: speedup {current['speedup']:.2f}x fell "
                f"below {floor:.2f}x (baseline {stage['speedup']:.2f}x / "
                f"tolerance {REGRESSION_TOLERANCE}x)"
            )
    return failures


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------
def test_population_eval_speedup(once):
    """Acceptance: >= 3x on the population-evaluation microbenchmark."""
    report = once(measure, model="resnet50", population=60, generations=3,
                  num_subgraphs=80)
    stage = report["stages"]["population"]
    sys.stderr.write(
        f"\n[bench_evaluator] population: fast "
        f"{stage['fast_ops_per_sec']:.0f} genomes/s vs reference "
        f"{stage['reference_ops_per_sec']:.0f} genomes/s "
        f"({stage['speedup']:.2f}x); generations "
        f"{report['stages']['generations']['speedup']:.2f}x; profile "
        f"{report['stages']['profile']['speedup']:.2f}x\n"
    )
    assert stage["speedup"] >= TARGET_SPEEDUP, (
        f"expected >= {TARGET_SPEEDUP}x population-evaluation speedup, "
        f"measured {stage['speedup']:.2f}x"
    )
    batch = report["stages"]["population_batch"]
    sys.stderr.write(
        f"[bench_evaluator] population_batch: {batch['speedup']:.2f}x vs "
        f"incremental, {batch['speedup_vs_reference']:.2f}x vs reference, "
        f"direct-solve share {batch['direct_solve_share']:.0%}\n"
    )
    assert batch["speedup"] >= TARGET_BATCH_SPEEDUP, (
        f"expected >= {TARGET_BATCH_SPEEDUP}x batched population pricing "
        f"over the incremental path, measured {batch['speedup']:.2f}x"
    )
    telemetry = report["stages"]["telemetry"]
    sys.stderr.write(
        f"[bench_evaluator] telemetry: {telemetry['overhead']:+.1%} "
        f"overhead, {telemetry['events_per_run']} events/run\n"
    )
    assert telemetry["overhead"] < TELEMETRY_OVERHEAD_CEILING, (
        f"telemetry overhead {telemetry['overhead']:.1%} exceeds the "
        f"{TELEMETRY_OVERHEAD_CEILING:.0%} ceiling"
    )


def test_quick_identity(once):
    """Cheap variant: every stage's identity assertions on a small model."""
    report = once(measure, model="googlenet", population=16, generations=2,
                  num_subgraphs=30, reps=1)
    assert set(report["stages"]) == {
        "profile", "price", "population", "population_batch", "generations",
        "telemetry",
    }
    for stage in report["stages"].values():
        assert stage["speedup"] > 0


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="resnet50")
    parser.add_argument("--population", type=int, default=60)
    parser.add_argument("--generations", type=int, default=4)
    parser.add_argument("--num-subgraphs", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="small CI configuration (googlenet, pop 16)")
    parser.add_argument("--output", default="BENCH_evaluator.json",
                        help="where to write the machine-readable report")
    parser.add_argument("--check-against", default=None,
                        help="baseline JSON; exit 1 on a >2x speedup regression")
    args = parser.parse_args(argv)

    if args.quick:
        report = measure(model="googlenet", population=16, generations=2,
                         num_subgraphs=30, seed=args.seed, reps=2)
    else:
        report = measure(
            model=args.model,
            population=args.population,
            generations=args.generations,
            num_subgraphs=args.num_subgraphs,
            seed=args.seed,
            reps=args.reps,
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    for name, stage in report["stages"].items():
        print(
            f"  {name:<12}: fast {stage['fast_ops_per_sec']:10.1f} ops/s  "
            f"reference {stage['reference_ops_per_sec']:10.1f} ops/s  "
            f"speedup {stage['speedup']:5.2f}x"
        )
    print("  results bit-identical at every stage (asserted)")

    if args.check_against:
        with open(args.check_against) as fh:
            baseline = json.load(fh)
        failures = check_regression(report, baseline)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"  no regression vs {args.check_against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
