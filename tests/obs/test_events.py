"""The telemetry sink: schema, activation, and crash/disk tolerance.

A sink writes through a registry node, so :class:`TestSink` runs every
case over each registry transport the conformance suite covers (fs, the
in-process object store, and the same store over HTTP).
"""

from __future__ import annotations

import json
from contextlib import ExitStack

import pytest

from repro.obs import (
    TELEMETRY_FILENAME,
    TELEMETRY_VERSION,
    TelemetrySink,
    activate,
    current_sink,
    emit,
)
from repro.runs.registry import iter_jsonl_text
from repro.runs.transport import FsTransport, RunNode

from ..conftest import TRANSPORT_KINDS, open_transport


def _records(node: RunNode, filename: str = TELEMETRY_FILENAME) -> list[dict]:
    return list(iter_jsonl_text(node.read_text(filename)))


def _kinds(node: RunNode, filename: str = TELEMETRY_FILENAME) -> list[str]:
    return [record["kind"] for record in _records(node, filename)]


@pytest.fixture
def nodes(tmp_path):
    """One cell node per registry transport backend."""
    with ExitStack() as stack:
        yield [
            RunNode(stack.enter_context(open_transport(kind, tmp_path / kind)), "cell")
            for kind in TRANSPORT_KINDS
        ]


@pytest.fixture
def node(tmp_path):
    """A cell node on the filesystem transport."""
    return RunNode(FsTransport(tmp_path / "registry"), "cell")


class TestSink:
    def test_records_are_versioned_and_clocked(self, nodes):
        for node in nodes:
            sink = TelemetrySink(node, clock=lambda: 123.5)
            sink.emit("cell.start", cell="c1", seed=7)
            [record] = _records(node)
            assert record == {
                "v": TELEMETRY_VERSION,
                "ts": 123.5,
                "kind": "cell.start",
                "cell": "c1",
                "seed": 7,
            }

    def test_appends_across_sinks(self, nodes):
        for node in nodes:
            TelemetrySink(node, clock=lambda: 1.0).emit("a")
            TelemetrySink(node, clock=lambda: 2.0).emit("b")
            assert _kinds(node) == ["a", "b"]

    def test_nonfinite_floats_become_null(self, nodes):
        for node in nodes:
            sink = TelemetrySink(node, clock=lambda: 0.0)
            sink.emit("x", cost=float("inf"), nested={"n": float("nan")})
            [record] = _records(node)
            assert record["cost"] is None
            assert record["nested"] == {"n": None}

    def test_unwritable_path_degrades_to_lost_telemetry(self, tmp_path):
        # The stream's key is a directory: every append fails with
        # OSError, which must be swallowed — telemetry loss must never
        # fail a cell.
        (tmp_path / TELEMETRY_FILENAME).mkdir()
        sink = TelemetrySink(RunNode(FsTransport(tmp_path), ""), clock=lambda: 0.0)
        sink.emit("a")
        sink.emit("b")
        assert sink.events_written == 0

    def test_counts_events(self, nodes):
        for node in nodes:
            sink = TelemetrySink(node, clock=lambda: 0.0)
            sink.emit("a")
            sink.emit("b")
            assert sink.events_written == 2


class TestActivation:
    def test_emit_without_sink_is_a_noop(self, tmp_path):
        assert current_sink() is None
        emit("orphan", x=1)  # must not raise, must not write anywhere
        assert list(tmp_path.iterdir()) == []

    def test_activate_scopes_the_sink(self, node):
        sink = TelemetrySink(node, clock=lambda: 0.0)
        with activate(sink):
            assert current_sink() is sink
            emit("inside")
        assert current_sink() is None
        emit("outside")
        assert _kinds(node) == ["inside"]

    def test_activate_nests_and_restores(self, node):
        outer = TelemetrySink(node, clock=lambda: 0.0, filename="outer.jsonl")
        inner = TelemetrySink(node, clock=lambda: 0.0, filename="inner.jsonl")
        with activate(outer):
            with activate(inner):
                emit("deep")
            emit("shallow")
        assert _kinds(node, "inner.jsonl") == ["deep"]
        assert _kinds(node, "outer.jsonl") == ["shallow"]

    def test_activate_none_silences_an_active_sink(self, node):
        sink = TelemetrySink(node, clock=lambda: 0.0)
        with activate(sink):
            with activate(None):
                emit("silenced")
            emit("kept")
        assert _kinds(node) == ["kept"]

    def test_restores_on_exception(self, node):
        sink = TelemetrySink(node, clock=lambda: 0.0)
        try:
            with activate(sink):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_sink() is None


class TestTornTail:
    def test_partial_final_line_is_invisible_to_readers(self, node):
        TelemetrySink(node, clock=lambda: 0.0).emit("whole")
        # Simulate a writer SIGKILLed mid-append.
        text = node.read_text(TELEMETRY_FILENAME)
        node.write_atomic(TELEMETRY_FILENAME, text + '{"v": 1, "kind": "torn", "ts": 9')
        assert _kinds(node) == ["whole"]

    def test_records_are_line_delimited_json(self, node):
        sink = TelemetrySink(node, clock=lambda: 0.0)
        sink.emit("a", payload={"deep": [1, 2]})
        sink.emit("b")
        lines = node.read_text(TELEMETRY_FILENAME).splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(line), dict) for line in lines)
