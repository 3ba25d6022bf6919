"""The ambient telemetry session.

One :class:`Telemetry` object bundles the three pillars — tracer,
metrics registry, FP-exception stream — plus the recorder that plugs
them into the environment layer.  The active instance is **task-local**
(a :mod:`contextvars` variable); :data:`NULL_TELEMETRY` is the default
and makes every instrumented call site a no-op.

Usage::

    with telemetry_session() as tel:
        run_conformance(...)
    print(tel.tracer.render_tree())
    print(tel.metrics.render())

New :class:`~repro.fpenv.FPEnv` instances pick up the active
recorder automatically (see ``FPEnv.__post_init__``), so code that
creates fresh environments deep inside a run — the oracle's
differential loop, ``env_context`` blocks — is observed without any
parameter threading.

Tasks and threads
-----------------

``asyncio`` runs every task on one thread, so a thread-local session
would let two concurrent request handlers clobber each other's spans
and metrics.  The slot is therefore a :class:`contextvars.ContextVar`:
``asyncio`` snapshots the context at task creation, so a session
installed inside one task is invisible to its siblings, and
``asyncio.to_thread`` carries it into worker threads.  A plain
:class:`threading.Thread` starts from an empty context and so sees
:data:`NULL_TELEMETRY`.

Processes, not just tasks
-------------------------

A ``fork()``-ed worker inherits the forking thread's context,
including an *enabled* ambient session whose spans, metrics, and event
sinks all live in the parent — recording into them from the child is
silent data loss (the objects are copies the parent never sees).  The
session is therefore pinned to the PID that installed it:
:func:`get_telemetry` (and :func:`active_recorder`, which reads
through it) detects that the current process is not the installing
process and resets the ambient session to :data:`NULL_TELEMETRY`.
Worker processes that *want* telemetry must re-initialize their own
recorder explicitly — :func:`reset_for_process` is the bootstrap hook
the execution engine's workers call before touching any instrumented
code.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
from collections.abc import Iterator

from repro.telemetry.events import BoundedEventLog, ExceptionStream
from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
    "active_recorder",
    "reset_for_process",
]

_DEFAULT_EVENT_CAPACITY = 10_000


@dataclasses.dataclass(frozen=True)
class Telemetry:
    """One observability session: tracer + metrics + exception stream."""

    tracer: Tracer | NullTracer
    metrics: MetricsRegistry | NullMetrics
    stream: ExceptionStream
    events: BoundedEventLog | None
    recorder: TelemetryRecorder | None
    enabled: bool

    @property
    def trace_id(self) -> str | None:
        """The session's trace id (``None`` for the null session)."""
        return self.tracer.trace_id

    @staticmethod
    def create(
        *,
        event_capacity: int = _DEFAULT_EVENT_CAPACITY,
        max_spans: int | None = None,
        trace_id: str | None = None,
    ) -> "Telemetry":
        """A fully enabled session with an in-memory retention sink.

        ``trace_id`` joins an existing trace (the cross-process
        propagation path); omitted, the tracer mints a fresh one.
        """
        tracer = (Tracer(trace_id=trace_id) if max_spans is None
                  else Tracer(max_spans, trace_id=trace_id))
        metrics = MetricsRegistry()
        stream = ExceptionStream()
        events = BoundedEventLog(event_capacity)
        stream.subscribe(events)
        recorder = TelemetryRecorder(metrics, stream, tracer)
        return Telemetry(
            tracer=tracer,
            metrics=metrics,
            stream=stream,
            events=events,
            recorder=recorder,
            enabled=True,
        )


#: The default, disabled session: every hook is a no-op.
NULL_TELEMETRY = Telemetry(
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
    stream=ExceptionStream(),
    events=None,
    recorder=None,
    enabled=False,
)


class _Ambient:
    """One installed session plus the PID that installed it.

    Installation always allocates a *new* entry (never mutates the old
    one in place) so that a session installed inside an asyncio task
    stays invisible to sibling tasks whose contexts still reference the
    previous entry.  The one sanctioned in-place mutation is the fork
    guard's sticky drop: every context in a forked child references a
    dead copy, so nulling it for all of them at once is exactly right.
    """

    __slots__ = ("current", "pid")

    def __init__(self, current: Telemetry, pid: int) -> None:
        self.current = current
        self.pid = pid


_AMBIENT: contextvars.ContextVar[_Ambient | None] = contextvars.ContextVar(
    "repro_telemetry_ambient", default=None
)


def get_telemetry() -> Telemetry:
    """The task's active telemetry session (NULL_TELEMETRY when off).

    Sessions are per-process: if the installing process forked, the
    inherited session belongs to the parent and is dropped here (see
    the module docstring).  The PID check only runs while a session is
    enabled, so the disabled-telemetry hot path stays one lookup.
    """
    ambient = _AMBIENT.get()
    if ambient is None:
        return NULL_TELEMETRY
    current = ambient.current
    if current is not NULL_TELEMETRY and ambient.pid != os.getpid():
        current = ambient.current = NULL_TELEMETRY
    return current


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` as the task's active session; returns the
    previous one.  Correct for asyncio handlers and for ordinary
    synchronous code alike."""
    previous = get_telemetry()
    _AMBIENT.set(_Ambient(telemetry, os.getpid()))
    return previous


def reset_for_process() -> None:
    """Drop any inherited ambient session in a (possibly forked) child.

    Idempotent; worker bootstraps call this before any instrumented
    code so that recording starts from an explicit, process-local
    state instead of a dead copy of the parent's session.
    """
    ambient = _AMBIENT.get()
    if ambient is not None:
        ambient.current = NULL_TELEMETRY
        _AMBIENT.set(None)


def active_recorder() -> TelemetryRecorder | None:
    """The active session's env-layer recorder (``None`` when off);
    the accessor ``FPEnv.__post_init__`` uses."""
    return get_telemetry().recorder


@contextlib.contextmanager
def telemetry_session(
    telemetry: Telemetry | None = None,
    *,
    event_capacity: int = _DEFAULT_EVENT_CAPACITY,
) -> Iterator[Telemetry]:
    """Run a block under an enabled telemetry session.

    The session object outlives the block, so callers can export its
    spans/metrics/events after the work finishes.  The previous
    session (usually :data:`NULL_TELEMETRY`) is restored on exit.
    Task-local: concurrent asyncio tasks can each hold their own
    session without cross-contamination.
    """
    session = telemetry or Telemetry.create(event_capacity=event_capacity)
    previous = set_telemetry(session)
    try:
        yield session
    finally:
        set_telemetry(previous)
