"""Golden checkpoint fixtures: the on-disk format later code must keep reading.

``tests/fixtures/checkpoints/registry`` holds the durable files of an
interrupted campaign, one run directory per scheme: what

    repro suite --networks vgg16 --modes separate \\
        --schemes cocco,rs,gs,sa,nsga,islands --scale tiny --seed 0 \\
        --budget 120

leaves behind (``config.json``, ``history.jsonl``, ``checkpoint.json``).
cocco, rs, gs, sa and islands stop at 20 evaluations each; nsga is
cell-atomic and completes, so its ``result.json`` is left out and it
resumes from its generation-0 checkpoint like the others. Telemetry,
``warm/`` and ``report.json`` are not part of the fixture.

``tests/fixtures/checkpoints/resumed`` holds each cell's ``result.json``
and ``history.jsonl`` after resuming that registry with no budget.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cost.evaluator import Evaluator
from repro.experiments.common import SCALES
from repro.graphs.zoo import get_model
from repro.runs.registry import RunRegistry
from repro.runs.suite import (
    _SCHEME_TABLE,
    SuiteMatrix,
    cell_accelerator,
    run_suite,
)

FIXTURES = Path(__file__).parent.parent / "fixtures" / "checkpoints"
#: The schemes the fixture was made with (a frozen artifact: a scheme
#: added later needs fixtures of its own).
SCHEMES = ("cocco", "rs", "gs", "sa", "nsga", "islands")
MATRIX = SuiteMatrix(
    networks=("vgg16",), modes=("separate",), schemes=SCHEMES,
    scale="tiny", seed=0,
)
#: Schemes whose re-encoded checkpoint must equal the committed bytes.
#: The composite kinds write their derived top-level ``evaluations``
#: after the fields, so only their JSON value is pinned.
BYTE_STABLE = ("cocco", "sa", "nsga")


def _cell(scheme: str):
    (cell,) = [c for c in MATRIX.cells() if c.scheme == scheme]
    return cell


def _run_name(scheme: str) -> str:
    cell = _cell(scheme)
    return RunRegistry(FIXTURES / "registry").run_name(
        cell.config_dict(), cell.seed(MATRIX.seed)
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_checkpoint_decodes_and_reencodes_to_itself(scheme):
    cell = _cell(scheme)
    entry = _SCHEME_TABLE[scheme](
        cell, cell.seed(MATRIX.seed),
        Evaluator(get_model(cell.network), cell_accelerator(cell)),
        SCALES[cell.scale], None,
    )
    text = (FIXTURES / "registry" / _run_name(scheme) / "checkpoint.json").read_text()
    state = json.loads(text)
    again = json.dumps(entry.encode(entry.decode(state)))
    assert json.loads(again) == state
    if scheme in BYTE_STABLE:
        assert again == text


def _copy_registry(tmp_path: Path) -> Path:
    root = tmp_path / "registry"
    shutil.copytree(FIXTURES / "registry", root)
    return root


def test_resume_reproduces_the_committed_outcome(tmp_path):
    root = _copy_registry(tmp_path)
    outcome = run_suite(MATRIX, root)
    assert (outcome.completed, outcome.failed) == (len(SCHEMES), 0)
    for scheme in SCHEMES:
        name = _run_name(scheme)
        for filename in ("result.json", "history.jsonl"):
            expected = (FIXTURES / "resumed" / name / filename).read_bytes()
            assert (root / name / filename).read_bytes() == expected, (
                scheme, filename,
            )


def _without_population(text: str) -> str:
    state = json.loads(text)
    del state["population"]
    return json.dumps(state)


@pytest.mark.parametrize(
    "corrupt, error",
    [
        (_without_population, "malformed ga checkpoint: KeyError: 'population'"),
        (
            lambda text: "{not json",
            "malformed checkpoint: JSONDecodeError: Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1)",
        ),
    ],
    ids=["missing-field", "undecodable"],
)
def test_malformed_checkpoint_fails_only_its_cell(tmp_path, corrupt, error):
    root = _copy_registry(tmp_path)
    broken = root / _run_name("cocco")
    checkpoint = broken / "checkpoint.json"
    checkpoint.write_text(corrupt(checkpoint.read_text()))
    outcome = run_suite(MATRIX, root)
    assert (outcome.completed, outcome.failed) == (len(SCHEMES) - 1, 1)
    ((state, message),) = outcome.errors.values()
    assert state == "failed"
    assert message == error
    assert json.loads((broken / "error.json").read_text())["error"] == message
    assert not (broken / "result.json").exists()
    for scheme in SCHEMES:
        if scheme != "cocco":
            name = _run_name(scheme)
            expected = (FIXTURES / "resumed" / name / "result.json").read_bytes()
            assert (root / name / "result.json").read_bytes() == expected
