"""Cross-process telemetry merge: harvest worker deltas into one forest.

The engine's workers (and the service's per-request sessions) each run
a private :class:`~repro.telemetry.runtime.Telemetry` session; results
ride the result channel unchanged, and the session's observations ride
*separately* as a compact, picklable payload dict:

- :func:`capture_payload` — worker side: snapshot a finished session
  (span dicts, a metrics delta, FP-exception event dicts) tagged with
  the trace id the worker adopted;
- :func:`merge_payload` — parent side: import the spans under a given
  local span id (see :meth:`Tracer.import_spans` for the id remap),
  fold the metrics delta into the parent registry, and replay the
  events through the parent's exception stream (renumbered by the
  parent's sequence, so merge order — shard-index order in the engine —
  fully determines the merged ordering).

Counters and log histograms fold exactly; gauges are last-write-wins.
Nothing here touches result values or cache keys — telemetry must
never influence either.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.telemetry.runtime import Telemetry

__all__ = [
    "PAYLOAD_VERSION",
    "capture_payload",
    "merge_metric",
    "merge_payload",
]

PAYLOAD_VERSION = 1


def capture_payload(session: Telemetry, *, wall: float = 0.0,
                    cpu: float = 0.0) -> dict[str, Any]:
    """Snapshot one finished session as a picklable payload dict."""
    metrics: list[list[Any]] = []
    for (name, labels), metric in session.metrics:
        metrics.append([name, dict(labels), metric.to_dict()])
    return {
        "v": PAYLOAD_VERSION,
        "trace_id": session.tracer.trace_id,
        "wall": wall,
        "cpu": cpu,
        "spans": [record.to_dict() for record in session.tracer.spans],
        "dropped_spans": session.tracer.dropped,
        "metrics": metrics,
        "events": [
            event.to_dict()
            for event in (session.events.events if session.events else ())
        ],
    }


def merge_metric(registry, name: str, labels: dict[str, str],
                 data: dict[str, Any]) -> None:
    """Fold one exported instrument into ``registry``."""
    kind = data.get("type")
    if kind == "counter":
        registry.counter(name, **labels).inc(int(data.get("value") or 0))
    elif kind == "gauge":
        registry.gauge(name, **labels).set(float(data.get("value") or 0.0))
    elif kind == "log_histogram":
        registry.log_histogram(name, **labels).merge_dict(data)
    # unknown kinds are dropped: a newer worker must not crash an
    # older parent over an instrument it cannot represent


#: Memoized name-tuple -> composite reconstructions: a harvested shard
#: replays hundreds of events whose flag lists repeat from a tiny set,
#: so the enum arithmetic runs once per distinct combination.
_FLAGS_FROM_NAMES: dict[tuple[str, ...], Any] = {}


def _flags_from_names(names: list[str]) -> enum.Flag | None:
    """Reconstruct an FPFlag composite from exported flag names.

    Lazy import keeps :mod:`repro.telemetry` dependency-free for every
    path that never merges; events whose names match no known FP flag
    (e.g. engine fault flags replayed through a worker) are skipped by
    the caller.
    """
    key = tuple(names)
    if key in _FLAGS_FROM_NAMES:
        return _FLAGS_FROM_NAMES[key]
    try:
        from repro.fpenv.flags import FLAGS_BY_VALUE, FPFlag
    except ImportError:  # pragma: no cover - fpenv always present here
        return None
    combined = 0
    for name in names:
        member = FPFlag.__members__.get(str(name).upper())
        if member is not None:
            combined |= member.value
    result = FLAGS_BY_VALUE[combined] if combined else None
    _FLAGS_FROM_NAMES[key] = result
    return result


def merge_payload(parent: Telemetry, payload: dict[str, Any], *,
                  under_span_id: int = 0, path_prefix: str = "") -> None:
    """Fold one worker payload into the parent session."""
    if not parent.enabled:
        return
    parent.tracer.import_spans(
        payload.get("spans") or (),
        under=under_span_id, path_prefix=path_prefix,
    )
    dropped = payload.get("dropped_spans") or 0
    if dropped:
        parent.metrics.counter("telemetry.dropped_spans_total").inc(dropped)
    for entry in payload.get("metrics") or ():
        name, labels, data = entry
        merge_metric(parent.metrics, name, labels, data)
    for event in payload.get("events") or ():
        flags = _flags_from_names(event.get("flags") or [])
        if flags is None:
            continue
        parent.stream.record(
            event.get("operation", "?"), flags,
            fmt=event.get("fmt"),
            span_path=event.get("span"),
        )
