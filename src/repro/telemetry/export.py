"""Exporters: JSONL traces, metrics JSON, and human-readable renders.

The trace format is line-delimited JSON, one record per line, each
self-describing via a ``"type"`` field — streamable, greppable, and
diffable.  Version 2 (this writer) opens the file with one ``meta``
record carrying the schema version and the session's ``trace_id``, and
stamps the trace id on every span and event record so a merged
cross-process trace is greppable by trace id alone; version 1 files
(no meta line, no trace ids) still load.  Metrics snapshots are a
single JSON object keyed by the canonical ``name{label=value,...}``
spelling.  Both formats round-trip: :func:`load_trace` and
:func:`load_metrics_json` parse back exactly what the writers emit.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.telemetry.runtime import Telemetry

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "trace_records",
    "write_trace_jsonl",
    "load_trace",
    "load_trace_jsonl",
    "render_span_tree",
    "write_metrics_json",
    "load_metrics_json",
    "render_metrics",
]

TRACE_SCHEMA_VERSION = 2


# -- traces ------------------------------------------------------------


def trace_records(telemetry: Telemetry) -> list[dict[str, Any]]:
    """Every span and FP-exception event of a session, as dicts.

    Spans come first (completion order), then retained events — each
    record self-describes via ``"type"`` and carries the session's
    ``trace_id`` (when the tracer has one).
    """
    trace_id = getattr(telemetry.tracer, "trace_id", None)
    records: list[dict[str, Any]] = [
        span.to_dict() for span in telemetry.tracer.spans
    ]
    if telemetry.events is not None:
        records.extend(event.to_dict() for event in telemetry.events.events)
    if trace_id is not None:
        for record in records:
            record.setdefault("trace_id", trace_id)
    return records


def write_trace_jsonl(path: str, telemetry: Telemetry) -> int:
    """Dump a session's trace to ``path``; returns the record count.

    The leading ``meta`` line is schema framing, not a record — it is
    excluded from the returned count.
    """
    records = trace_records(telemetry)
    meta = {
        "type": "meta",
        "version": TRACE_SCHEMA_VERSION,
        "trace_id": getattr(telemetry.tracer, "trace_id", None),
        "dropped_spans": telemetry.tracer.dropped,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, sort_keys=True))
        handle.write("\n")
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def load_trace(path: str) -> dict[str, Any]:
    """Parse a trace dump into ``{"meta", "spans", "events"}``.

    Version 1 files (no meta line) load with a synthesized
    ``{"version": 1}`` meta.  Raises ``ValueError`` on lines that are
    not JSON objects or have an unknown type, so a truncated or
    foreign file fails loudly.
    """
    meta: dict[str, Any] = {"version": 1}
    spans: list[dict[str, Any]] = []
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"line {number}: not a JSON object")
            kind = record.get("type")
            if kind == "span":
                spans.append(record)
            elif kind == "fp_event":
                events.append(record)
            elif kind == "meta":
                meta = {k: v for k, v in record.items() if k != "type"}
            else:
                raise ValueError(
                    f"line {number}: unknown record type {kind!r}"
                )
    return {"meta": meta, "spans": spans, "events": events}


def load_trace_jsonl(
    path: str,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Parse a trace dump back into ``(spans, fp_events)``.

    The v1-era accessor; meta framing (v2) is parsed and discarded.
    """
    trace = load_trace(path)
    return trace["spans"], trace["events"]


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_span_tree(spans: Iterable[dict[str, Any]]) -> str:
    """Indented tree of span dicts (as produced by the JSONL dump)."""
    spans = list(spans)
    if not spans:
        return "(no spans)"
    children: dict[int, list[dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent", 0), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.get("start", 0.0))

    lines: list[str] = []

    def emit(span: dict[str, Any], depth: int) -> None:
        attrs = span.get("attrs") or {}
        shown = "".join(f" {k}={v}" for k, v in sorted(attrs.items()))
        lines.append(
            f"{'  ' * depth}{span.get('name', '?')}"
            f"  wall={_format_seconds(float(span.get('wall', 0.0)))}"
            f" cpu={_format_seconds(float(span.get('cpu', 0.0)))}{shown}"
        )
        for child in children.get(span.get("id", -1), ()):
            emit(child, depth + 1)

    for root in children.get(0, ()):
        emit(root, 0)
    return "\n".join(lines)


# -- metrics -----------------------------------------------------------


def write_metrics_json(path: str, snapshot: dict[str, Any]) -> None:
    """Write a metrics snapshot (from ``registry.snapshot()``)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_metrics_json(path: str) -> dict[str, Any]:
    """Parse a metrics dump; raises ``ValueError`` if not an object."""
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict):
        raise ValueError("metrics file does not contain a JSON object")
    return snapshot


def render_metrics(snapshot: dict[str, Any]) -> str:
    """One line per instrument; histograms show their summary."""
    if not snapshot:
        return "(no metrics)"
    lines = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type", "?")
        if kind == "log_histogram":
            parts = []
            for key in ("count", "mean", "p50", "p95", "p99", "max"):
                value = entry.get(key)
                if isinstance(value, float):
                    parts.append(f"{key}={value:.3g}")
                else:
                    parts.append(f"{key}={value}")
            lines.append(f"{name}  {' '.join(parts)}")
        else:
            lines.append(f"{name}  {entry.get('value')}")
    return "\n".join(lines)
