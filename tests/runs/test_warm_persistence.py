"""Registry-persisted warm summaries: round-trip and cell warm-start.

Per-(network, element-width) warm files let restarted and freshly
sharded workers absorb the summary scalars earlier cells already priced
instead of recomputing them. Summaries are pure values, so the preload
is free to be lossy (a missing/corrupt file costs a cold start) but
never wrong: whatever round-trips must round-trip *bit-identically*.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.cost.evaluator import Evaluator
from repro.experiments.common import paper_accelerator
from repro.graphs.zoo import get_model
from repro.partition.random_init import random_partition
from repro.runs.registry import RunRegistry
from repro.runs.suite import SuiteCell, SuiteMatrix, run_cell, run_suite

#: ``warm/vgg16-bpe1.json`` as written by ``repro suite --networks vgg16
#: --schemes cocco,sa --scale tiny --seed 0`` (501 entries).
FIXTURE = Path(__file__).parent.parent / "fixtures" / "warm" / "vgg16-bpe1.json"


def _warm_file(root: Path, network: str, bytes_per_element: int) -> Path:
    """Where a filesystem registry at ``root`` keeps one warm file."""
    return root / "warm" / f"{network}-bpe{bytes_per_element}.json"


def _entries():
    return [
        (
            (frozenset(["a", "b"]), ("separate", 1024, 2048)),
            (True, 4096, 123.456789012345, 77.25),
        ),
        (
            (frozenset(["c"]), ("shared", 512)),
            (False, int(1e18), float("inf"), float("inf")),
        ),
    ]


class TestRoundTrip:
    def test_entries_round_trip_bit_identical(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        registry.save_warm_summaries("net", 1, _entries())
        loaded = registry.load_warm_summaries("net", 1)
        assert dict(loaded) == dict(_entries())
        for (_, mem_key), (feasible, ema, energy, latency) in loaded:
            assert isinstance(mem_key, tuple)
            assert isinstance(feasible, bool)
            assert isinstance(ema, int)
            assert isinstance(energy, float)
            assert isinstance(latency, float)

    def test_files_keyed_by_network_and_width(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        registry.save_warm_summaries("net", 1, _entries())
        assert registry.load_warm_summaries("net", 2) == []
        assert registry.load_warm_summaries("other", 1) == []

    def test_save_merges_with_existing(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        first, second = _entries()
        registry.save_warm_summaries("net", 1, [first])
        registry.save_warm_summaries("net", 1, [second])
        assert dict(registry.load_warm_summaries("net", 1)) == dict(_entries())

    def test_cap_keeps_newest(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        entries = [
            ((frozenset([f"n{i}"]), ("shared", 64)), (True, i, 1.0, 1.0))
            for i in range(6)
        ]
        registry.save_warm_summaries("net", 1, entries[:4], cap=3)
        registry.save_warm_summaries("net", 1, entries[4:], cap=3)
        kept = registry.load_warm_summaries("net", 1)
        assert len(kept) == 3
        assert dict(kept) == dict(entries[3:])

    @pytest.mark.parametrize("op", ["load", "save"])
    @pytest.mark.parametrize(
        "body",
        [
            "{not json",
            "[]",
            '"x"',
            '{"entries": 5}',
            '{"entries": [["a"]]}',
            '{"entries": [[["a"], ["x"], [true]]]}',
            '{"entries": [[["a", 1], ["x"], [true, 1, 1.0, 1.0]]]}',
        ],
        ids=[
            "undecodable", "list", "string", "entries-int", "short-entry",
            "short-summary", "unorderable-members",
        ],
    )
    def test_corrupt_file_means_cold_start(self, tmp_path, body, op):
        registry = RunRegistry(tmp_path / "reg")
        path = _warm_file(tmp_path / "reg", "net", 1)
        path.parent.mkdir(parents=True)
        path.write_text(body)
        if op == "load":
            assert registry.load_warm_summaries("net", 1) == []
            return
        # Saving over a corrupt file writes just the fresh entries, the
        # same bytes as saving into a registry that has no warm file.
        registry.save_warm_summaries("net", 1, _entries())
        clean = RunRegistry(tmp_path / "clean")
        clean.save_warm_summaries("net", 1, _entries())
        assert path.read_bytes() == _warm_file(tmp_path / "clean", "net", 1).read_bytes()

    def test_missing_file_means_cold_start(self, tmp_path):
        assert RunRegistry(tmp_path / "reg").load_warm_summaries("x", 1) == []


class TestEvaluatorInterop:
    def test_exported_summaries_survive_persistence(self, tmp_path):
        """save -> load -> absorb equals the original evaluator state."""
        graph = get_model("googlenet")
        accel = paper_accelerator()
        producer = Evaluator(graph, accel)
        rng = random.Random(2)
        pops = [random_partition(graph, rng).subgraph_sets for _ in range(4)]
        producer.prime_summaries(pops)
        expected = [producer.summarize(p) for p in pops]
        registry = RunRegistry(tmp_path / "reg")
        registry.save_warm_summaries("googlenet", 1, producer.export_summaries())
        consumer = Evaluator(graph, accel)
        consumer.absorb_summaries(registry.load_warm_summaries("googlenet", 1))
        priced_before = consumer.num_cost_calls
        assert [consumer.summarize(p) for p in pops] == expected
        assert consumer.num_cost_calls == priced_before  # fully warm
        assert consumer.num_batch_priced == 0


class TestRunCellWarmStart:
    CELL = SuiteCell(
        network="vgg16", mode="separate", metric="ema",
        bytes_per_element=1, scheme="cocco", alpha=0.002, scale="tiny",
    )

    def test_run_cell_persists_and_preloads(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        result = run_cell(self.CELL, 0, registry)
        assert result["status"] == "complete"
        warm = registry.load_warm_summaries("vgg16", 1)
        assert warm  # the cell's pricing work was persisted
        payload = json.loads(_warm_file(tmp_path / "reg", "vgg16", 1).read_text())
        assert payload["network"] == "vgg16"
        assert payload["bytes_per_element"] == 1

        # A second cell on the same graph (different seed => different
        # run) starts from the persisted summaries: identical result,
        # and its evaluator absorbed the warm entries up front.
        evaluator = Evaluator(
            get_model("vgg16"), paper_accelerator()
        )
        rerun = run_cell(self.CELL, 1, registry, evaluator=evaluator)
        assert rerun["status"] == "complete"
        assert dict(evaluator._summaries).keys() >= dict(warm).keys()

    def test_warm_start_does_not_change_results(self, tmp_path):
        cold = run_cell(self.CELL, 0, RunRegistry(tmp_path / "cold"))
        warm_registry = RunRegistry(tmp_path / "warm")
        # Pre-seed the registry with another run's warm file first.
        other = run_cell(self.CELL, 1, warm_registry)
        assert other["status"] == "complete"
        warmed = run_cell(self.CELL, 0, warm_registry)
        assert warmed == cold


class TestDurableFixture:
    def test_fixture_is_reproduced_and_survives_an_empty_save(self, tmp_path):
        """The committed warm file is the format later code must keep."""
        matrix = SuiteMatrix(
            networks=("vgg16",), schemes=("cocco", "sa"), scale="tiny", seed=0,
        )
        registry = RunRegistry(tmp_path / "fresh")
        run_suite(matrix, tmp_path / "fresh")
        written = _warm_file(tmp_path / "fresh", "vgg16", 1).read_bytes()
        assert written == FIXTURE.read_bytes()

        store = RunRegistry(tmp_path / "store")
        path = _warm_file(tmp_path / "store", "vgg16", 1)
        path.parent.mkdir(parents=True)
        path.write_bytes(FIXTURE.read_bytes())
        assert len(store.load_warm_summaries("vgg16", 1)) == 501
        store.save_warm_summaries("vgg16", 1, [])
        assert path.read_bytes() == FIXTURE.read_bytes()
