"""Unified observability: span tracing, metrics, FP-exception events.

The paper's thesis is that exceptional conditions go unnoticed because
nothing surfaces them; this package is the reproduction's answer for
its *own* runtime.  Three pillars, zero dependencies:

- **Span tracing** (:mod:`~repro.telemetry.tracer`): nested, timed
  scopes with attributes; :class:`NullTracer` makes disabled tracing
  cost one attribute lookup.
- **Metrics** (:mod:`~repro.telemetry.metrics`): labelled counters,
  gauges, and mergeable log histograms with p50/p95/p99 summaries.
- **FP-exception events** (:mod:`~repro.telemetry.events`): every
  flag-raise becomes a streamable coordinate (operation, flags, span
  path) fanned out to pluggable sinks; the environment layer's
  ``TracingEnv`` is a compatibility shim over this stream.

Enable with :func:`telemetry_session`; export with
:mod:`~repro.telemetry.export`; or use the CLI
(``python -m repro telemetry``, and ``--trace``/``--metrics-out`` on
``study``, ``oracle run``, and ``optsim``).
"""

from repro.telemetry.context import (
    TraceContext,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
)
from repro.telemetry.events import (
    BoundedEventLog,
    ExceptionStream,
    FPExceptionEvent,
    flag_labels,
    single_flags,
)
from repro.telemetry.merge import (
    capture_payload,
    merge_metric,
    merge_payload,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
)
from repro.telemetry.prometheus import (
    parse_exposition,
    render_prometheus,
)
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.runtime import (
    NULL_TELEMETRY,
    Telemetry,
    active_recorder,
    get_telemetry,
    reset_for_process,
    set_telemetry,
    telemetry_session,
)
from repro.telemetry.tracer import (
    NullTracer,
    NULL_TRACER,
    Span,
    SpanRecord,
    Tracer,
)

__all__ = [
    "BoundedEventLog",
    "Counter",
    "ExceptionStream",
    "FPExceptionEvent",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "NullMetrics",
    "NullTracer",
    "NULL_METRICS",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Span",
    "SpanRecord",
    "Telemetry",
    "TelemetryRecorder",
    "TraceContext",
    "Tracer",
    "active_recorder",
    "capture_payload",
    "flag_labels",
    "format_traceparent",
    "get_telemetry",
    "merge_metric",
    "merge_payload",
    "new_trace_id",
    "parse_exposition",
    "parse_traceparent",
    "render_prometheus",
    "reset_for_process",
    "set_telemetry",
    "single_flags",
    "telemetry_session",
]
