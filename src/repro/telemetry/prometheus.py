"""Prometheus/OpenMetrics text exposition for a metrics registry.

:func:`render_prometheus` walks a :class:`MetricsRegistry` and emits
the standard text format:

- counters and gauges become single samples;
- :class:`LogHistogram` becomes a Prometheus *histogram* family —
  cumulative ``_bucket{le=...}`` samples (upper bounds are the
  log-bucket boundaries), ``_sum`` and ``_count``;
- *exemplars* (OpenMetrics ``# {trace_id="..."} value`` suffixes)
  attach to counter samples and histogram ``+Inf`` buckets, keyed by
  the registry's canonical ``name{label=value,...}`` spelling — this
  is how a per-flag FP-exception count points back at the trace that
  raised it.

:func:`parse_exposition` is the matching format checker used by tests
and CI: it validates line shapes and returns the parsed samples, so a
scrape pipeline drift (bad name, bad label escaping, non-numeric
value) fails loudly rather than silently dropping series.
"""

from __future__ import annotations

import math
import re
from typing import Any

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    format_metric_name,
)

__all__ = ["render_prometheus", "parse_exposition", "sanitize_name"]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN))"
    r"(?P<exemplar> # \{[^{}]*\} [^ ]+( [0-9.eE+-]+)?)?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = f"_{cleaned}"
    return cleaned


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r'\"')
        .replace("\n", r"\n")
    )


def _labels_text(labels: tuple[tuple[str, str], ...],
                 extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{sanitize_name(key)}="{_escape(value)}"'
        for key, value in (*labels, *extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _number(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _exemplar_suffix(exemplar: tuple[str, float] | None) -> str:
    if exemplar is None:
        return ""
    trace_id, value = exemplar
    return f' # {{trace_id="{_escape(trace_id)}"}} {_number(value)}'


def render_prometheus(
    registry,
    *,
    exemplars: dict[str, tuple[str, float]] | None = None,
) -> str:
    """The registry as Prometheus text format (one trailing newline).

    ``exemplars`` maps the canonical ``name{label=value,...}`` spelling
    (:func:`format_metric_name`) to ``(trace_id, value)``.
    """
    exemplars = exemplars or {}
    families: dict[str, list[str]] = {}
    types: dict[str, str] = {}
    for (name, labels), metric in registry:
        base = sanitize_name(name)
        canonical = format_metric_name(name, labels)
        exemplar = exemplars.get(canonical)
        lines = families.setdefault(base, [])
        if isinstance(metric, Counter):
            types[base] = "counter"
            lines.append(
                f"{base}{_labels_text(labels)} {_number(metric.value)}"
                f"{_exemplar_suffix(exemplar)}"
            )
        elif isinstance(metric, Gauge):
            types[base] = "gauge"
            lines.append(
                f"{base}{_labels_text(labels)} {_number(metric.value)}"
            )
        elif isinstance(metric, LogHistogram):
            types[base] = "histogram"
            for upper, cumulative in metric.bucket_bounds():
                lines.append(
                    f"{base}_bucket"
                    f"{_labels_text(labels, (('le', _number(upper)),))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{base}_bucket{_labels_text(labels, (('le', '+Inf'),))}"
                f" {metric.count}{_exemplar_suffix(exemplar)}"
            )
            lines.append(
                f"{base}_sum{_labels_text(labels)} {_number(metric.total)}"
            )
            lines.append(
                f"{base}_count{_labels_text(labels)} {metric.count}"
            )
    out: list[str] = []
    for base in sorted(families):
        out.append(f"# TYPE {base} {types[base]}")
        out.extend(families[base])
    return "\n".join(out) + "\n" if out else "\n"


def parse_exposition(text: str) -> dict[str, Any]:
    """Validate Prometheus text format; raises ``ValueError`` on drift.

    Returns ``{"types": {family: type}, "samples": {sample_key: value},
    "exemplars": {sample_key: trace_id}}`` where ``sample_key`` is the
    exposition spelling ``name{label="value",...}``.
    """
    types: dict[str, str] = {}
    samples: dict[str, float] = {}
    found_exemplars: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {number}: malformed TYPE line")
            _, _, family, kind = parts
            if not _NAME_OK.match(family):
                raise ValueError(
                    f"line {number}: bad family name {family!r}"
                )
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError(f"line {number}: bad type {kind!r}")
            types[family] = kind
            continue
        if line.startswith("#"):
            continue  # HELP/comments
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {number}: malformed sample: {line!r}")
        labels_text = match.group("labels") or ""
        if labels_text:
            body = labels_text[1:-1]
            stripped = _LABEL.sub("", body)
            if stripped.strip(", "):
                raise ValueError(
                    f"line {number}: malformed labels: {labels_text!r}"
                )
        key = match.group("name") + labels_text
        raw = match.group("value")
        value = float(raw.replace("Inf", "inf"))
        samples[key] = value
        exemplar = match.group("exemplar")
        if exemplar:
            trace_match = re.search(r'trace_id="([^"]*)"', exemplar)
            if trace_match:
                found_exemplars[key] = trace_match.group(1)
    return {
        "types": types,
        "samples": samples,
        "exemplars": found_exemplars,
    }
