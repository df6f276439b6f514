"""The run registry: durable run slices, streaming, atomic completion.

Layout assertions build paths as ``root / registry.run_name(config,
seed)`` — the on-disk layout of a filesystem registry; everything else
goes through the registry's nodes.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.runs.registry import RunRegistry, config_hash


CONFIG = {"network": "resnet50", "scheme": "cocco", "alpha": 0.002}


@pytest.fixture
def registry(tmp_path) -> RunRegistry:
    return RunRegistry(tmp_path / "reg")


class TestConfigHash:
    def test_key_order_independent(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_value_sensitive(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})


class TestRunLifecycle:
    def test_open_writes_config(self, registry, tmp_path):
        run = registry.open_run(CONFIG, seed=7)
        run_dir = tmp_path / "reg" / registry.run_name(CONFIG, 7)
        assert run.name == run_dir.name
        assert run_dir.is_dir()
        payload = json.loads((run_dir / "config.json").read_text())
        assert payload["config"] == CONFIG
        assert payload["seed"] == 7

    def test_directory_keyed_by_hash_and_seed(self, registry):
        assert registry.run_name(CONFIG, 7).endswith("-s7")
        assert registry.run_name(CONFIG, 7) != registry.run_name(CONFIG, 8)
        other = {**CONFIG, "alpha": 0.005}
        assert registry.run_name(CONFIG, 7) != registry.run_name(other, 7)

    def test_load_needs_a_config(self, registry):
        """A run slice exists once its config is written; a bare
        container (a claimed lease, say) is not a run."""
        with pytest.raises(ConfigError):
            registry.load(CONFIG, 0)
        registry.run_node(CONFIG, 0).ensure()
        with pytest.raises(ConfigError):
            registry.load(CONFIG, 0)
        registry.open_run(CONFIG, seed=0)
        assert registry.load(CONFIG, 0).name == registry.run_name(CONFIG, 0)

    def test_incomplete_until_finished(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        assert not run.is_complete
        assert not registry.is_complete(CONFIG, 0)
        run.finish({"best_cost": 1.5})
        assert run.is_complete
        assert registry.is_complete(CONFIG, 0)
        assert run.load_result() == {"best_cost": 1.5}

    def test_load_result_before_finish_raises(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        with pytest.raises(ConfigError):
            run.load_result()

    def test_no_partial_result_file_left_behind(self, registry, tmp_path):
        """finish() is atomic: either result.json exists whole or not
        at all — no .tmp debris counts as completion."""
        run = registry.open_run(CONFIG, seed=0)
        run.finish({"v": 1})
        assert not list((tmp_path / "reg" / run.name).glob("*.tmp*"))


class TestHistoryStreaming:
    def test_append_and_read(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        run.log_history({"generation": 0, "best_cost": 9.0})
        run.log_history({"generation": 1, "best_cost": 7.0})
        assert [e["generation"] for e in run.read_history()] == [0, 1]

    def test_reopen_incomplete_truncates_history(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        run.log_history({"generation": 0})
        run = registry.open_run(CONFIG, seed=0)  # restart, no checkpoint
        assert run.read_history() == []

    def test_reopen_with_checkpoint_keeps_history(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        run.log_history({"generation": 0})
        run.save_checkpoint({"format": 1, "generation": 0})
        run = registry.open_run(CONFIG, seed=0)
        assert [e["generation"] for e in run.read_history()] == [0]

    def test_truncate_history_drops_orphans(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        for generation in range(4):
            run.log_history({"generation": generation})
        run.save_checkpoint({"format": 1, "generation": 2})
        run = registry.open_run(CONFIG, seed=0)
        run.truncate_history(2)
        assert [e["generation"] for e in run.read_history()] == [0, 1, 2]

    def test_torn_final_line_is_dropped(self, registry):
        """A writer killed mid-append leaves a final line without its
        newline — even one whose visible prefix parses; the reader drops
        it, and a truncate rewrites the stream without it."""
        run = registry.open_run(CONFIG, seed=0)
        for generation in range(3):
            run.log_history({"generation": generation})
        text = run.node.read_text("history.jsonl")
        for fragment in ('{"generation": 3, "evalu', '{"generation": 3}'):
            run.node.write_atomic("history.jsonl", text + fragment)
            assert [e["generation"] for e in run.read_history()] == [0, 1, 2]
        run.truncate_history(1)
        assert run.node.read_text("history.jsonl") == (
            '{"generation": 0}\n{"generation": 1}\n'
        )

    def test_reopen_complete_is_readonly(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        run.log_history({"generation": 0})
        run.finish({"v": 1})
        run = registry.open_run(CONFIG, seed=0)
        assert run.is_complete
        assert [e["generation"] for e in run.read_history()] == [0]


class TestCheckpointFiles:
    def test_round_trip(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        assert run.load_checkpoint() is None
        run.save_checkpoint({"generation": 3, "rng_state": [1, 2]})
        assert run.load_checkpoint() == {"generation": 3, "rng_state": [1, 2]}
        assert run.has_checkpoint


class TestEnumeration:
    def test_runs_and_completed(self, registry):
        registry.open_run(CONFIG, seed=0)
        other = registry.open_run({**CONFIG, "network": "vgg16"}, seed=1)
        other.finish({"v": 2})
        assert len(list(registry.runs())) == 2
        completed = registry.completed()
        assert len(completed) == 1
        assert completed[0].load_result() == {"v": 2}

    def test_empty_registry(self, tmp_path):
        registry = RunRegistry(tmp_path / "missing")
        assert list(registry.runs()) == []
        assert registry.completed() == []


class TestErrorMarkers:
    def test_record_and_load(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        assert not run.has_error
        assert run.load_error() is None
        run.record_error("bad model")
        assert run.has_error
        assert run.load_error()["error"] == "bad model"
        assert registry.has_error(CONFIG, 0)

    def test_result_supersedes_error(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        run.record_error("transient")
        run.finish({"v": 1})
        assert not run.has_error
        assert not registry.has_error(CONFIG, 0)
        assert run.is_complete

    def test_error_does_not_mark_complete(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        run.record_error("boom")
        assert not run.is_complete
        assert not registry.is_complete(CONFIG, 0)


class TestGc:
    def test_reclaims_completed_checkpoints_and_leases(self, registry):
        done = registry.open_run(CONFIG, seed=0)
        done.save_checkpoint({"generation": 5, "big": "x" * 1000})
        done.node.write_atomic("lease.json", "{}")
        done.finish({"v": 1})
        pending = registry.open_run(CONFIG, seed=1)
        pending.save_checkpoint({"generation": 2})

        removed, reclaimed = registry.gc()
        assert removed == 2
        assert reclaimed > 1000
        # completed run: scratch gone, result intact
        assert not done.has_checkpoint
        assert not done.node.exists("lease.json")
        assert done.load_result() == {"v": 1}
        # incomplete run keeps its checkpoint (that's its resume state)
        assert pending.has_checkpoint

    def test_gc_sweeps_killed_writer_litter(self, registry, tmp_path):
        run = registry.open_run(CONFIG, seed=0)
        run.finish({"v": 1})
        run_dir = tmp_path / "reg" / run.name
        # a writer SIGKILLed mid-write and a crashed lease steal leave:
        (run_dir / "checkpoint.json.tmp-123-abcd1234").write_text("{}")
        (run_dir / "lease.json.expired-deadbeef").write_text("{}")
        removed, _ = registry.gc()
        assert removed == 2
        assert list(run_dir.glob("*.tmp-*")) == []
        assert list(run_dir.glob("lease.json.expired-*")) == []

    def test_gc_idempotent(self, registry):
        run = registry.open_run(CONFIG, seed=0)
        run.save_checkpoint({"generation": 1})
        run.finish({"v": 1})
        assert registry.gc()[0] == 1
        assert registry.gc() == (0, 0)

    def test_gc_on_empty_registry(self, tmp_path):
        assert RunRegistry(tmp_path / "none").gc() == (0, 0)
