"""The searcher contract every suite scheme keeps, run against each one.

Parametrized over :data:`repro.runs.suite.SCHEMES`, so a new entry in
the scheme table is covered without touching this file:

* **resume** — a cell resumed from *any* checkpoint it saved (with an
  orphaned history line past it, as a kill between the two writes
  leaves) ends with the clean run's result row, ``history.jsonl`` and
  final ``checkpoint.json``, byte for byte;
* **ticks** — the position ticks of a search's snapshots strictly
  increase, and ``finished`` holds on the last snapshot only;
* **caps** — a capped scheme stops at exactly its sample cap, the same
  cap sequence walked twice yields identical registries (also when a
  kill tore the history's final line at every stop), and a cell-atomic
  scheme ignores the cap;
* **codec** — every checkpoint a search yields comes back from its
  encoding, as JSON text, as an equal object: every field of every
  checkpoint class, nested ones included, survives the round trip.

Whether a grown cap reproduces the *unbudgeted* trajectory is not part
of the contract: a cap landing mid-generation changes what cocco, rs,
gs and islands breed next.
"""

from __future__ import annotations

import json

import pytest

from repro.cost.evaluator import Evaluator
from repro.experiments.common import SCALES
from repro.graphs.zoo import get_model
from repro.runs.registry import RunHandle, RunRegistry
from repro.runs.suite import (
    _SCHEME_TABLE,
    CAPPED_SCHEMES,
    SCHEMES,
    SuiteCell,
    cell_accelerator,
    run_cell,
)

CAMPAIGN_SEED = 0
#: Registry files the contract pins (telemetry carries wall-clock stamps).
DURABLE = ("config.json", "history.jsonl", "checkpoint.json", "result.json")


def _cell(scheme: str, scale: str = "tiny") -> SuiteCell:
    return SuiteCell(
        network="vgg16", mode="separate", metric="energy",
        bytes_per_element=1, scheme=scheme, alpha=0.002, scale=scale,
    )


def _entry(scheme: str):
    cell = _cell(scheme)
    evaluator = Evaluator(get_model(cell.network), cell_accelerator(cell))
    return _SCHEME_TABLE[scheme](
        cell, cell.seed(CAMPAIGN_SEED), evaluator, SCALES[cell.scale], None
    )


def _node(registry: RunRegistry, cell: SuiteCell):
    return registry.run_node(cell.config_dict(), cell.seed(CAMPAIGN_SEED))


def _files(registry: RunRegistry, cell: SuiteCell) -> dict[str, str | None]:
    node = _node(registry, cell)
    return {name: node.read_text(name) for name in DURABLE}


def _clean_run(cell, registry, monkeypatch):
    """Run ``cell`` uninterrupted, recording each checkpoint it saves
    together with the history streamed up to that save."""
    saved = []
    save = RunHandle.save_checkpoint

    def record(handle, state):
        saved.append((state, handle.read_history()))
        save(handle, state)

    with monkeypatch.context() as patch:
        patch.setattr(RunHandle, "save_checkpoint", record)
        row = run_cell(cell, CAMPAIGN_SEED, registry)
    return row, saved


def _assert_resumes_from_every_checkpoint(cell, tmp_path, monkeypatch):
    clean = RunRegistry(tmp_path / "clean")
    clean_row, saved = _clean_run(cell, clean, monkeypatch)
    clean_files = _files(clean, cell)
    history = clean.load(
        cell.config_dict(), cell.seed(CAMPAIGN_SEED)
    ).read_history()
    assert saved, "the scheme saved no checkpoint"
    for index, (state, streamed) in enumerate(saved):
        registry = RunRegistry(tmp_path / f"resume-{index}")
        run = registry.open_run(cell.config_dict(), cell.seed(CAMPAIGN_SEED))
        # A kill between a history line and its checkpoint write leaves
        # the next line orphaned; the resume must drop and replay it.
        for entry in history[: len(streamed) + 1]:
            run.log_history(entry)
        run.save_checkpoint(state)
        assert run_cell(cell, CAMPAIGN_SEED, registry) == clean_row, index
        assert _files(registry, cell) == clean_files, index
    return saved


# ---------------------------------------------------------------------------
class TestResume:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_resumes_from_every_checkpoint(self, scheme, tmp_path, monkeypatch):
        _assert_resumes_from_every_checkpoint(
            _cell(scheme), tmp_path, monkeypatch
        )

    def test_nsga_resumes_past_generation_zero(self, tmp_path, monkeypatch):
        """At quick scale nsga persists generations 0 and 5 (its archive
        checkpoints are kept every fifth generation only)."""
        saved = _assert_resumes_from_every_checkpoint(
            _cell("nsga", scale="quick"), tmp_path, monkeypatch
        )
        assert [state["generation"] for state, _ in saved] == [0, 5]


# ---------------------------------------------------------------------------
class TestTicks:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ticks_increase_and_only_the_last_is_finished(self, scheme):
        entry = _entry(scheme)
        snapshots = []
        entry.search(snapshots.append, None)
        ticks = [entry.tick(snapshot) for snapshot in snapshots]
        assert all(a < b for a, b in zip(ticks, ticks[1:])), ticks
        finished = [entry.finished(snapshot) for snapshot in snapshots]
        assert finished == [False] * (len(snapshots) - 1) + [True]


# ---------------------------------------------------------------------------
class TestCaps:
    #: Cumulative caps; 11 and 19 land mid-generation for every scheme.
    CAPS = (11, 19)

    @pytest.mark.parametrize("scheme", sorted(CAPPED_SCHEMES))
    def test_stops_exactly_at_the_cap(self, scheme, tmp_path):
        cell = _cell(scheme)
        registry = RunRegistry(tmp_path / "reg")
        for cap in self.CAPS:
            row = run_cell(cell, CAMPAIGN_SEED, registry, sample_cap=cap)
            assert row["status"] == "exhausted"
            assert row["num_evaluations"] == cap
        # At its cap already: a repeat call is the early exit and
        # rewrites nothing.
        before = _files(registry, cell)
        row = run_cell(cell, CAMPAIGN_SEED, registry, sample_cap=self.CAPS[-1])
        assert row["num_evaluations"] == self.CAPS[-1]
        assert _files(registry, cell) == before

    @pytest.mark.parametrize("scheme", sorted(CAPPED_SCHEMES))
    def test_same_cap_sequence_same_registry(self, scheme, tmp_path):
        cell = _cell(scheme)
        walked = []
        for name in ("first", "second"):
            registry = RunRegistry(tmp_path / name)
            for cap in (*self.CAPS, None):
                row = run_cell(cell, CAMPAIGN_SEED, registry, sample_cap=cap)
            assert row["status"] == "complete"
            walked.append(_files(registry, cell))
        assert walked[0] == walked[1]

    @pytest.mark.parametrize("scheme", sorted(CAPPED_SCHEMES))
    def test_torn_history_tail_resumes(self, scheme, tmp_path):
        """A writer killed mid-append leaves a torn final history line.
        Resuming drops it: every durable file ends byte-identical to an
        untorn registry's that walks the same caps."""
        cell = _cell(scheme)
        walked = []
        for name, torn in (("clean", False), ("torn", True)):
            registry = RunRegistry(tmp_path / name)
            node = _node(registry, cell)
            for cap in (*self.CAPS, None):
                row = run_cell(cell, CAMPAIGN_SEED, registry, sample_cap=cap)
                if torn and row["status"] == "exhausted":
                    text = node.read_text("history.jsonl")
                    node.write_atomic("history.jsonl", text + '{"tick": 9, "ev')
            assert row["status"] == "complete"
            walked.append(_files(registry, cell))
        assert walked[0] == walked[1]

    @pytest.mark.parametrize(
        "scheme", [s for s in SCHEMES if s not in CAPPED_SCHEMES]
    )
    def test_cell_atomic_scheme_ignores_the_cap(self, scheme, tmp_path):
        cell = _cell(scheme)
        clean = RunRegistry(tmp_path / "clean")
        capped = RunRegistry(tmp_path / "capped")
        clean_row = run_cell(cell, CAMPAIGN_SEED, clean)
        row = run_cell(cell, CAMPAIGN_SEED, capped, sample_cap=self.CAPS[0])
        assert row == clean_row
        assert row["num_evaluations"] > self.CAPS[0]
        assert _files(capped, cell) == _files(clean, cell)


# ---------------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_checkpoint_decodes_to_an_equal_object(self, scheme):
        """Dataclass equality against the search's own graph object, so
        rebuilt genomes compare equal to the live ones."""
        entry = _entry(scheme)
        seen = []

        def hook(checkpoint):
            text = json.dumps(entry.encode(checkpoint))
            assert entry.decode(json.loads(text)) == checkpoint, len(seen)
            seen.append(checkpoint)

        entry.search(hook, None)
        assert seen
