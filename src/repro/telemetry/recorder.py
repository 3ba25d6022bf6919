"""The bridge between the environment layer and telemetry.

:class:`TelemetryRecorder` is what an :class:`~repro.fpenv.FPEnv`
holds in its ``recorder`` slot while a telemetry session is active.
The environment layer calls exactly two hooks:

- :meth:`record_op` — once per softfloat operation entry (this is why
  ``softfloat.ops_total`` counters exist without any per-op branching
  inside the arithmetic: the op functions test one env attribute);
- :meth:`record_flags` — from ``FPEnv.raise_flags`` whenever sticky
  flags are set, which both bumps per-flag counters and emits an
  :class:`~repro.telemetry.events.FPExceptionEvent` tagged with the
  current span path.
"""

from __future__ import annotations

import enum

from repro.telemetry.events import ExceptionStream, flag_labels
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer

__all__ = ["TelemetryRecorder"]


class TelemetryRecorder:
    """Routes env-layer hooks into a metrics registry and event stream.

    Both hooks sit on the per-operation hot path of an instrumented
    run, so the registry lookups (labels dict -> sorted key tuple ->
    instrument) are memoized per recorder: the distinct (op, format)
    and flag-combination populations of a run are tiny, and a cached
    hook is a dict probe plus an increment instead of a fresh
    registry resolution per softfloat operation.
    """

    __slots__ = ("metrics", "stream", "tracer",
                 "_op_counters", "_flag_counters")

    def __init__(
        self,
        metrics: MetricsRegistry,
        stream: ExceptionStream,
        tracer: Tracer | None = None,
    ) -> None:
        self.metrics = metrics
        self.stream = stream
        self.tracer = tracer
        self._op_counters: dict[tuple[str, str], object] = {}
        self._flag_counters: dict[object, tuple] = {}

    def record_op(self, operation: str, fmt_name: str) -> None:
        """One softfloat operation executed."""
        key = (operation, fmt_name)
        counter = self._op_counters.get(key)
        if counter is None:
            counter = self._op_counters[key] = self.metrics.counter(
                "softfloat.ops_total", op=operation, format=fmt_name
            )
        counter.inc()

    def record_flags(self, operation: str, flags: enum.Flag) -> None:
        """Sticky flags were raised by ``operation``."""
        tracer = self.tracer
        span_path = tracer.current_path() if tracer is not None else None
        self.stream.record(operation, flags, span_path=span_path or None)
        counters = self._flag_counters.get(flags)
        if counters is None:
            counters = self._flag_counters[flags] = tuple(
                self.metrics.counter("fpenv.exceptions_total", flag=name)
                for name in flag_labels(flags)
            )
        for counter in counters:
            counter.inc()
