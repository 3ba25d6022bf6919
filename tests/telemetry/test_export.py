"""Exporter round-trips: JSONL traces and metrics JSON."""

import json

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.export import (
    load_metrics_json,
    load_trace_jsonl,
    render_metrics,
    render_span_tree,
    write_metrics_json,
    write_trace_jsonl,
)


def _session_with_activity() -> Telemetry:
    session = Telemetry.create()
    with session.tracer.span("outer", run=1):
        with session.tracer.span("inner"):
            pass
        session.stream.record(
            "add", _inexact(), fmt="binary32", span_path="outer"
        )
    session.metrics.counter("ops_total", op="add").inc(2)
    session.metrics.log_histogram("latency").observe(0.5)
    return session


def _inexact():
    from repro.fpenv import FPFlag

    return FPFlag.INEXACT


class TestTraceRoundTrip:
    def test_write_then_load(self, tmp_path):
        session = _session_with_activity()
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(str(path), session)
        assert count == 3  # two spans + one event
        spans, events = load_trace_jsonl(str(path))
        assert [span["name"] for span in spans] == ["inner", "outer"]
        assert spans[1]["attrs"] == {"run": 1}
        assert events[0]["operation"] == "add"
        assert events[0]["flags"] == ["inexact"]
        assert events[0]["span"] == "outer"

    def test_load_rejects_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(ValueError, match="not a JSON object"):
            load_trace_jsonl(str(path))

    def test_load_rejects_unknown_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            load_trace_jsonl(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        record = json.dumps({"type": "span", "id": 1, "parent": 0,
                             "name": "s", "path": "s", "start": 0.0,
                             "wall": 0.1, "cpu": 0.1, "attrs": {}})
        path.write_text(f"\n{record}\n\n")
        spans, events = load_trace_jsonl(str(path))
        assert len(spans) == 1 and events == []


class TestSpanTreeRender:
    def test_empty(self):
        assert render_span_tree([]) == "(no spans)"

    def test_indentation_follows_parents(self, tmp_path):
        session = _session_with_activity()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(str(path), session)
        spans, _ = load_trace_jsonl(str(path))
        lines = render_span_tree(spans).splitlines()
        assert lines[0].startswith("outer")
        assert "wall=" in lines[0] and "cpu=" in lines[0]
        assert lines[1].startswith("  inner")


class TestMetricsRoundTrip:
    def test_write_then_load(self, tmp_path):
        session = _session_with_activity()
        path = tmp_path / "metrics.json"
        write_metrics_json(str(path), session.metrics.snapshot())
        snapshot = load_metrics_json(str(path))
        assert snapshot["ops_total{op=add}"]["value"] == 2
        assert snapshot["latency"]["count"] == 1
        assert snapshot["latency"]["p50"] == 0.5

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]\n")
        with pytest.raises(ValueError):
            load_metrics_json(str(path))

    def test_render(self):
        session = _session_with_activity()
        text = render_metrics(session.metrics.snapshot())
        assert "ops_total{op=add}  2" in text
        assert "count=1" in text
        assert render_metrics({}) == "(no metrics)"
