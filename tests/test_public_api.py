"""The top-level package exports a stable, complete public API."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version_present(self):
        major, *_rest = repro.__version__.split(".")
        assert major.isdigit()

    @pytest.mark.parametrize(
        "module",
        [
            "repro.graphs",
            "repro.graphs.zoo",
            "repro.graphs.transforms",
            "repro.execution",
            "repro.memory",
            "repro.mapper",
            "repro.cost",
            "repro.partition",
            "repro.ga",
            "repro.dse",
            "repro.multicore",
            "repro.experiments",
            "repro.viz",
            "repro.cli",
            "repro.parallel",
            "repro.runs",
            "repro.runs.suite",
        ],
    )
    def test_subpackages_import(self, module):
        assert importlib.import_module(module) is not None

    def test_subpackage_alls_resolve(self):
        for name in ("repro.graphs", "repro.memory", "repro.mapper",
                     "repro.dse", "repro.viz"):
            module = importlib.import_module(name)
            for symbol in module.__all__:
                assert getattr(module, symbol) is not None, (name, symbol)

    def test_errors_form_single_hierarchy(self):
        from repro import errors

        subclasses = [
            errors.GraphError,
            errors.ShapeError,
            errors.PartitionError,
            errors.TilingError,
            errors.CapacityError,
            errors.AllocationError,
            errors.ConfigError,
            errors.SearchError,
        ]
        for cls in subclasses:
            assert issubclass(cls, errors.ReproError)

    def test_one_minute_workflow(self):
        """The README's core loop works from top-level imports alone."""
        graph = repro.get_model("mobilenet_v2")
        memory = repro.MemoryConfig.shared(2 * 1024 * 1024)
        evaluator = repro.Evaluator(
            graph, repro.AcceleratorConfig(memory=memory)
        )
        base = evaluator.evaluate(
            repro.Partition.singletons(graph).subgraph_sets
        )
        assert base.feasible
        fused = evaluator.evaluate(
            repro.Partition.whole_graph(graph).subgraph_sets
        )
        if fused.feasible:
            assert fused.ema_bytes <= base.ema_bytes

    def test_import_leaves_networkx_unloaded(self):
        """Only RandWire builds need networkx; ``import repro`` and the
        CLI (paid by every command and every spawned worker) must not
        load it."""
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        result = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, repro, repro.cli.main; "
                "print('networkx' in sys.modules)",
            ],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout.strip() == "False"

    def test_no_module_loads_numpy(self):
        """The package depends on networkx alone: importing every module
        and building a RandWire graph's cost columns leave NumPy
        unloaded."""
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        script = (
            "import importlib, pkgutil, sys, repro\n"
            "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not m.name.endswith('__main__'):\n"
            "        importlib.import_module(m.name)\n"
            "from repro.graphs.zoo import get_model\n"
            "get_model('randwire_a').arrays(1)\n"
            "print('numpy' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout.strip() == "False"
