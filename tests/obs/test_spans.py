"""Timing spans: nesting, failure status, and the disabled fast path."""

from __future__ import annotations

import pytest

from repro.obs import TELEMETRY_FILENAME, TelemetrySink, activate, span, span_stack
from repro.runs.registry import iter_jsonl_text
from repro.runs.transport import FsTransport, RunNode


@pytest.fixture
def node(tmp_path):
    return RunNode(FsTransport(tmp_path / "registry"), "cell")


def drain(node):
    return list(iter_jsonl_text(node.read_text(TELEMETRY_FILENAME)))


class TestSpan:
    def test_emits_duration_and_attrs(self, node):
        sink = TelemetrySink(node, clock=lambda: 0.0)
        with activate(sink):
            with span("evaluator.batch", keys=10, cold=3):
                pass
        [record] = drain(node)
        assert record["kind"] == "span"
        assert record["name"] == "evaluator.batch"
        assert record["keys"] == 10
        assert record["cold"] == 3
        assert record["status"] == "ok"
        assert record["dur_s"] >= 0.0
        assert record["parent"] is None
        assert record["depth"] == 0

    def test_nesting_records_parent_and_depth(self, node):
        sink = TelemetrySink(node, clock=lambda: 0.0)
        with activate(sink):
            with span("outer"):
                assert span_stack() == ("outer",)
                with span("inner"):
                    assert span_stack() == ("outer", "inner")
            assert span_stack() == ()
        inner, outer = drain(node)
        assert inner["name"] == "inner"
        assert inner["parent"] == "outer"
        assert inner["depth"] == 1
        assert outer["name"] == "outer"
        assert outer["parent"] is None

    def test_exception_marks_error_and_reraises(self, node):
        sink = TelemetrySink(node, clock=lambda: 0.0)
        with activate(sink):
            with pytest.raises(ValueError):
                with span("failing"):
                    raise ValueError("boom")
        assert span_stack() == ()
        [record] = drain(node)
        assert record["status"] == "error"

    def test_disabled_span_is_transparent(self, tmp_path):
        # No sink active: the span must not touch the stack, must not
        # write, and must still propagate exceptions.
        with span("ghost"):
            assert span_stack() == ()
        with pytest.raises(ValueError):
            with span("ghost"):
                raise ValueError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_stack_restored_after_error(self, node):
        sink = TelemetrySink(node, clock=lambda: 0.0)
        with activate(sink):
            with span("outer"):
                with pytest.raises(RuntimeError):
                    with span("inner"):
                        raise RuntimeError("boom")
                assert span_stack() == ("outer",)
